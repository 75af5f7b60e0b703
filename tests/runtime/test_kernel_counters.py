"""Kernel counters: a guard that counts instead of timing, and their obs plumbing.

The Dinic kernel's speed comes from labelling two small balls per phase
instead of most of the Even graph, and from reading a vertex no flow has
changed through half of its arc list.  A timing assertion would flake on
a loaded host; the counts of labelled vertices and of whole-list reads
repeat exactly, so a later edit that quietly degrades to a one-sided
search, or to reading every arc again, fails here.
"""

import random

from repro.api import synthetic_snapshot
from repro.core.connectivity_graph import build_connectivity_graph
from repro.core.vertex_connectivity import sample_non_adjacent_pairs
from repro.graph.generators import random_regular_out_digraph
from repro.graph.maxflow import network_flow_function
from repro.graph.maxflow.residual import KERNEL_COUNTERS
from repro.obs.summary import format_summary
from repro.runtime.executor import make_executor
from repro.runtime import pairflow
from repro.runtime.pairflow import PairFlowEngine


def kernel_counts(registry):
    return {name: registry.counter(f"maxflow.{name}") for name in KERNEL_COUNTERS}


def snapshot_graph_and_pairs():
    snapshot = synthetic_snapshot(2500, contacts_per_node=16, seed=42)
    graph = build_connectivity_graph(snapshot.routing_tables)
    return graph, sample_non_adjacent_pairs(graph, 32, random.Random(42))


def test_two_small_balls_not_the_whole_graph():
    graph, pairs = snapshot_graph_and_pairs()
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


def test_same_level_graphs_with_few_whole_list_reads():
    # phases / augmentations / vertices_labelled are what the kernel counted
    # on these 32 pairs when it read every arc of every vertex: the reads
    # of an unmarked vertex skip arcs that cannot qualify, in the same
    # relative order, so level graphs and augmenting paths are the same
    # ones.  Only a vertex on an earlier path of the same flow is read
    # whole, and how many are is pinned too: a change to how a vertex is
    # read must leave all five counters where they are.
    graph, pairs = snapshot_graph_and_pairs()
    engine = PairFlowEngine(graph)
    network = engine.transform.network
    engine.evaluate(pairs)
    assert network.kernel_counters() == (93, 465, 60731, 0, 218)
    assert 0 < network.full_scans * 10 < network.vertices_labelled
    cut_engine = PairFlowEngine(graph)
    cut_engine.evaluate(pairs, use_cutoff=True, initial_minimum=4)
    cut_network = cut_engine.transform.network
    assert cut_network.kernel_counters() == (56, 128, 22062, 32, 49)
    assert 0 < cut_network.full_scans * 10 < cut_network.vertices_labelled


def test_without_an_undo_log_every_expanded_vertex_is_read_whole():
    graph = random_regular_out_digraph(60, 5, random.Random(11))
    pairs = sample_non_adjacent_pairs(graph, 12, random.Random(3))
    dinic = network_flow_function("dinic")
    edmonds_karp = network_flow_function("edmonds_karp")

    def counts(prepare):
        """Kernel counters of the 12 flows, each on a network ``prepare`` set up."""
        engine = PairFlowEngine(graph)
        network = engine.transform.network
        indexed = [engine.transform.flow_endpoint_indices(*pair) for pair in pairs]
        for (source, sink), (next_source, next_sink) in zip(indexed, indexed[1:]):
            network.reset()
            prepare(network, source, sink)
            dinic(network, next_source, next_sink, None)
        return dict(zip(KERNEL_COUNTERS, network.kernel_counters()))

    def log_off(network, source, sink):
        edmonds_karp(network, source, sink, 1.0)
        network.caps[:] = network._initial_caps  # same capacities, log still off
        assert network._touched is None

    def all_marked(network, source, sink):
        network._changed[:] = [network._epoch] * network.n

    plain = counts(lambda network, source, sink: None)
    unlogged = counts(log_off)
    # Same flows on the same capacities: same searches, but every vertex
    # a search expanded was read whole — exactly as if all were marked.
    assert unlogged == counts(all_marked)
    for name in ("phases", "augmentations", "vertices_labelled"):
        assert unlogged[name] == plain[name]
    assert unlogged["full_scans"] > 4 * plain["full_scans"] > 0
    assert unlogged["full_scans"] >= 2 * unlogged["phases"]


def test_serial_and_pool_report_the_same_kernel_counts(obs_enabled, monkeypatch):
    monkeypatch.setattr(pairflow, "SHARD_SIZE", 8)
    monkeypatch.setattr(pairflow, "WAVE_WIDTH", 2)
    graph = random_regular_out_digraph(60, 5, random.Random(11))
    pairs = sample_non_adjacent_pairs(graph, 40, random.Random(3))
    totals = []
    session = make_executor(2).open_session()
    try:
        for borrowed in (None, session):
            obs_enabled.clear()
            engine = PairFlowEngine(graph, session=borrowed)
            outcome = engine.evaluate(pairs, use_cutoff=True, initial_minimum=4)
            totals.append((outcome.values, kernel_counts(obs_enabled)))
    finally:
        session.close()
    assert totals[0] == totals[1]
    counts = totals[0][1]
    assert counts["phases"] > 0 and counts["cutoff_hits"] > 0
    assert counts["full_scans"] > 0
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
    assert f"{counts['full_scans']} read whole" in line
