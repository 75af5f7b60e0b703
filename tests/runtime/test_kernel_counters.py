"""Kernel counters: a guard that counts instead of timing, and their obs plumbing.

The Dinic kernel's speed comes from labelling two small balls per phase
instead of most of the Even graph.  A timing assertion would flake on a
loaded host; the count of labelled vertices repeats exactly, so a later
edit that quietly degrades to a one-sided search fails here.
"""

import random

from repro.api import synthetic_snapshot
from repro.core.connectivity_graph import build_connectivity_graph
from repro.core.vertex_connectivity import sample_non_adjacent_pairs
from repro.graph.generators import random_regular_out_digraph
from repro.graph.maxflow.residual import KERNEL_COUNTERS
from repro.obs.summary import format_summary
from repro.runtime.pairflow import PairFlowEngine


def kernel_counts(registry):
    return {name: registry.counter(f"maxflow.{name}") for name in KERNEL_COUNTERS}


def test_two_small_balls_not_the_whole_graph():
    snapshot = synthetic_snapshot(2500, contacts_per_node=16, seed=42)
    graph = build_connectivity_graph(snapshot.routing_tables)
    pairs = sample_non_adjacent_pairs(graph, 32, random.Random(42))
    engine = PairFlowEngine(graph)
    network = engine.transform.network
    outcome = engine.evaluate(pairs)
    assert outcome.pairs_evaluated == 32
    assert network.phases > 0
    assert network.augmentations == sum(outcome.values)
    assert network.cutoff_hits == 0
    # The forward-only kernel labelled most of the 2 n split vertices in
    # each of its ~4 phases per flow; two balls stay well under one sweep.
    assert network.n == 2 * graph.number_of_vertices()
    assert network.vertices_labelled / len(pairs) < network.n


def test_serial_and_pool_report_the_same_kernel_counts(obs_enabled):
    graph = random_regular_out_digraph(60, 5, random.Random(11))
    pairs = sample_non_adjacent_pairs(graph, 40, random.Random(3))
    totals = []
    for jobs in (1, 2):
        obs_enabled.clear()
        engine = PairFlowEngine(graph, flow_jobs=jobs, shard_size=8, wave_width=2)
        outcome = engine.evaluate(pairs, use_cutoff=True, initial_minimum=4)
        totals.append((outcome.values, kernel_counts(obs_enabled)))
    assert totals[0] == totals[1]
    counts = totals[0][1]
    assert counts["phases"] > 0 and counts["cutoff_hits"] > 0
    assert counts["augmentations"] == sum(totals[0][0])


def test_summary_names_the_kernel_only_when_it_ran(obs_enabled):
    graph = random_regular_out_digraph(30, 4, random.Random(5))
    pairs = sample_non_adjacent_pairs(graph, 6, random.Random(5))
    PairFlowEngine(graph, algorithm="edmonds_karp").evaluate(pairs)
    assert kernel_counts(obs_enabled) == dict.fromkeys(KERNEL_COUNTERS, 0)
    assert "kernel:" not in format_summary(obs_enabled.snapshot())
    PairFlowEngine(graph).evaluate(pairs)
    counts = kernel_counts(obs_enabled)
    line = next(
        line
        for line in format_summary(obs_enabled.snapshot()).splitlines()
        if line.startswith("pairflow")
    )
    assert f"kernel: {counts['phases']} phases" in line
    assert f"{counts['vertices_labelled']} vertices labelled" in line
