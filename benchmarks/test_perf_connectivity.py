"""Perf trajectory benchmark for the pair-flow hot path.

Measures pairs/sec of the per-snapshot connectivity computation on a fixed
seeded graph and writes ``benchmarks/output/BENCH_connectivity.json`` — a
machine-readable baseline-vs-after record so future perf PRs have a trend
line to compare against.

Two workloads are timed, each across four configurations:

``minimum_pass``
    The analyzer's production workload: the minimum of ``kappa`` over the
    lowest-out-degree x lowest-in-degree pair grid, seeded with the degree
    bound.  This is where the batched engine's one-transform-per-snapshot
    construction and sharded cutoff propagation both pay off.

``average_pass``
    A cutoff-free batch of the same pairs (exact values), isolating the
    build-once + micro-optimised-solver gain from the cutoff gain.

Configurations:

* ``baseline_serial`` — the pre-batching serial path: one
  :func:`pairwise_vertex_connectivity` call per pair, which rebuilds the
  Even transformation and residual network every time and has no cutoff
  support.  This is the cost model the paper's ~250 CPU-hour figure and
  this repo's pre-engine per-pair API share.
* ``evaluator_serial`` — the pre-engine analyzer internals
  (:class:`PairFlowEvaluator`): network built once, per-pair cutoffs.
* ``engine_serial`` — :class:`PairFlowEngine` with ``flow_jobs=1``.
* ``engine_parallel4`` — the engine on a 4-worker process pool.

All four configurations must agree on the minimum (asserted); the speedup
figures are recorded, not asserted, because wall-clock ratios depend on
the host (on a single-CPU runner ``engine_parallel4`` pays pool/IPC
overhead for no real parallelism and lands between ``baseline_serial``
and ``engine_serial``).  Every configuration is timed best-of-N, and the
engine configurations are timed in steady state (session pinned, pool
warmed) — the shape in which the analyzer actually uses the engine.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Dict, Tuple

from benchmarks.conftest import BENCH_SEED, attach_obs_metrics, write_artefact
from repro.core.vertex_connectivity import (
    PairFlowEvaluator,
    lowest_in_degree_vertices,
    lowest_out_degree_vertices,
    pairwise_vertex_connectivity,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_regular_out_digraph
from repro.runtime.pairflow import PairFlowEngine

#: Benchmark-graph shape (fixed so the JSON is comparable across PRs).
GRAPH_NODES = 200
GRAPH_OUT_DEGREE = 5
GRAPH_SEED = 99
#: In/out edges kept on the carved bottleneck vertex (drives the minimum,
#: and with it every cutoff, below the regular degree).
BOTTLENECK_DEGREE = 2
#: Pair-grid dimensions of the minimum pass.
SOURCE_COUNT = 16
TARGET_COUNT = 16
#: Worker count of the parallel configuration (the ISSUE's reference run).
PARALLEL_JOBS = 4


def benchmark_graph() -> DiGraph:
    """Symmetric closure of a random regular digraph plus one weak vertex.

    The symmetric closure mirrors the paper's observation that Kademlia
    connectivity graphs are nearly undirected; the carved low-degree
    vertex gives the graph a real bottleneck, which is exactly the regime
    where the minimum pass's degree-bound seeding and cutoff propagation
    matter.
    """
    base = random_regular_out_digraph(
        GRAPH_NODES, GRAPH_OUT_DEGREE, random.Random(GRAPH_SEED)
    )
    graph = DiGraph()
    for u, v, _ in base.edges():
        graph.add_edge(u, v)
        graph.add_edge(v, u)
    weak = graph.vertices()[0]
    for target in graph.successors(weak)[BOTTLENECK_DEGREE:]:
        graph.remove_edge(weak, target)
    for source in graph.predecessors(weak)[BOTTLENECK_DEGREE:]:
        graph.remove_edge(source, weak)
    return graph


#: Timed repetitions per configuration; the best run is recorded.  On a
#: shared single-CPU host a single shot of the pooled configuration can be
#: dominated by scheduler noise — best-of-N is the standard throughput
#: measurement and is what makes the JSON comparable across PRs.
REPEATS = 3


def _timed(fn: Callable[[], Tuple[int, int]], repeats: int = REPEATS) -> Dict[str, float]:
    """Run ``fn`` -> (minimum, pairs) ``repeats`` times; keep the best run."""
    best_elapsed = None
    minimum = pairs = 0
    for _ in range(repeats):
        started = time.perf_counter()
        minimum, pairs = fn()
        elapsed = time.perf_counter() - started
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
    return {
        "minimum": minimum,
        "pairs": pairs,
        "seconds": round(best_elapsed, 6),
        "pairs_per_sec": (
            round(pairs / best_elapsed, 2) if best_elapsed > 0 else 0.0
        ),
        "repeats": repeats,
    }


def test_perf_connectivity_trajectory(output_dir):
    graph = benchmark_graph()
    sources = lowest_out_degree_vertices(graph, SOURCE_COUNT)
    targets = lowest_in_degree_vertices(graph, TARGET_COUNT)
    degree_bound = min(graph.min_out_degree(), graph.min_in_degree())
    pairs = [
        (source, target)
        for source in sources
        for target in targets
        if target != source and not graph.has_edge(source, target)
    ]
    assert pairs, "benchmark grid must contain non-adjacent pairs"

    # Warm the interpreter (bytecode specialisation) off the clock.
    PairFlowEngine(graph).evaluate(pairs[:8])
    [pairwise_vertex_connectivity(graph, s, t) for s, t in pairs[:4]]

    # ------------------------------------------------------------------
    # Engine configurations are timed in steady state: the session (and
    # with it the worker pool plus the shipped network) is pinned once per
    # configuration and warmed before the clock starts, matching how the
    # analyzer uses the engine (one pinned session per snapshot, many
    # shard waves through it).
    def timed_engine(jobs, workload) -> Dict[str, float]:
        with PairFlowEngine(graph, flow_jobs=jobs) as engine:
            engine.evaluate(pairs[:16])  # warm the pool / worker state
            return _timed(lambda: workload(engine))

    def minimum_workload(engine):
        return engine.minimum_over(sources, targets, initial_minimum=degree_bound)

    def average_workload(engine):
        outcome = engine.evaluate(pairs)
        return outcome.minimum, outcome.pairs_evaluated

    # ------------------------------------------------------------------
    # Workload 1: the minimum pass.
    def baseline_minimum():
        values = [pairwise_vertex_connectivity(graph, s, t) for s, t in pairs]
        return min(values), len(values)

    def evaluator_minimum():
        return PairFlowEvaluator(graph).minimum_over(
            sources, targets, use_cutoff=True, initial_minimum=degree_bound
        )

    minimum_pass = {
        "baseline_serial": _timed(baseline_minimum, repeats=2),
        "evaluator_serial": _timed(evaluator_minimum),
        "engine_serial": timed_engine(1, minimum_workload),
        f"engine_parallel{PARALLEL_JOBS}": timed_engine(
            PARALLEL_JOBS, minimum_workload
        ),
    }
    minima = {config["minimum"] for config in minimum_pass.values()}
    assert len(minima) == 1, f"configurations disagree on the minimum: {minimum_pass}"

    # ------------------------------------------------------------------
    # Workload 2: a cutoff-free exact batch (average-pass shape).  The
    # per-pair baseline has no cutoff support, so its minimum-pass and
    # average-pass workloads are literally the same loop — reuse the
    # timing instead of re-running the slowest configuration.
    average_pass = {
        "baseline_serial": minimum_pass["baseline_serial"],
        "engine_serial": timed_engine(1, average_workload),
        f"engine_parallel{PARALLEL_JOBS}": timed_engine(
            PARALLEL_JOBS, average_workload
        ),
    }
    assert len({config["minimum"] for config in average_pass.values()}) == 1

    def speedup(workload, config, reference="baseline_serial"):
        return round(
            workload[config]["pairs_per_sec"]
            / workload[reference]["pairs_per_sec"],
            3,
        )

    parallel_key = f"engine_parallel{PARALLEL_JOBS}"
    document = {
        "schema": 1,
        "created_unix": round(time.time(), 3),
        "graph": {
            "nodes": GRAPH_NODES,
            "edges": graph.number_of_edges(),
            "generator": "symmetric closure of random_regular_out_digraph",
            "out_degree": GRAPH_OUT_DEGREE,
            "seed": GRAPH_SEED,
            "bottleneck_degree": BOTTLENECK_DEGREE,
            "degree_bound": degree_bound,
            "pair_grid": f"{SOURCE_COUNT}x{TARGET_COUNT}",
            "pairs_evaluated": len(pairs),
        },
        "workloads": {
            "minimum_pass": {
                "configs": minimum_pass,
                "speedups_vs_baseline": {
                    config: speedup(minimum_pass, config)
                    for config in minimum_pass
                    if config != "baseline_serial"
                },
            },
            "average_pass": {
                "configs": average_pass,
                "speedups_vs_baseline": {
                    config: speedup(average_pass, config)
                    for config in average_pass
                    if config != "baseline_serial"
                },
            },
        },
        "headline": {
            "description": (
                f"minimum-pass pairs/sec, {PARALLEL_JOBS}-worker engine vs "
                "the per-pair serial baseline"
            ),
            "speedup": speedup(minimum_pass, parallel_key),
        },
        "provenance": {"bench_seed": BENCH_SEED},
    }

    path = output_dir / "BENCH_connectivity.json"
    path.write_text(
        json.dumps(attach_obs_metrics(document), indent=2) + "\n",
        encoding="utf-8",
    )

    summary_lines = [
        f"{'config':<22} {'pairs/s (min pass)':>18} {'pairs/s (avg pass)':>18}"
    ]
    for config in minimum_pass:
        avg = average_pass.get(config, {}).get("pairs_per_sec", "-")
        summary_lines.append(
            f"{config:<22} {minimum_pass[config]['pairs_per_sec']:>18} {avg:>18}"
        )
    summary_lines.append(
        f"headline speedup ({parallel_key} vs baseline_serial, min pass): "
        f"{document['headline']['speedup']}x"
    )
    write_artefact(
        output_dir, "BENCH_connectivity.txt", "\n".join(summary_lines)
    )

    # Sanity floor on the pool-free configuration only — the serial engine
    # has no IPC/scheduler noise, so this cannot flake on a loaded host;
    # the parallel ratio is recorded, not asserted, because it depends on
    # the runner's core count.
    assert speedup(minimum_pass, "engine_serial") > 1.0


# ----------------------------------------------------------------------
# Campaign scheduler benchmark: time-to-first-figure on a mixed-cost sweep.
# ----------------------------------------------------------------------

#: Mixed-cost task set, deliberately submitted most-expensive-first (the
#: adversarial order for FIFO): tiny K is a large-network churn+loss run,
#: tiny E a small churn run, tiny A a small no-traffic 0/1 run — observed
#: costs span roughly an order of magnitude.
SCHEDULER_SCENARIOS = ("K", "E", "A")
SCHEDULER_PROFILE = "tiny"


def test_perf_scheduler_time_to_first_figure(output_dir, tmp_path):
    """Record the cheapest-first scheduling win in BENCH_connectivity.json.

    Two passes over the same mixed-cost batch, both *uncached* so every
    task really executes:

    * ``fifo`` — submission order, cold cost model.  Its per-task
      wall-clocks warm the ``_costs.json`` sidecar.
    * ``cheapest`` — the warmed model reorders dispatch cheapest-first.

    Time-to-first-result is the scheduling payoff (the campaign streams
    each result through its progress callback the moment it completes);
    the results themselves must be bit-identical, pass to pass.
    """
    from repro.experiments.persistence import trajectory_digest
    from repro.experiments.scenarios import get_scenario
    from repro.runtime import Campaign, ExperimentTask, TaskCostModel
    from repro.runtime.costmodel import COSTS_FILENAME

    tasks = [
        ExperimentTask.create(
            scenario=get_scenario(name),
            profile=SCHEDULER_PROFILE,
            seed=BENCH_SEED,
        )
        for name in SCHEDULER_SCENARIOS
    ]
    sidecar = tmp_path / COSTS_FILENAME

    def timed_campaign(schedule: str):
        started = time.perf_counter()
        first_result_at = None
        completion_order = []

        def progress(event):
            nonlocal first_result_at
            if first_result_at is None:
                first_result_at = time.perf_counter() - started
            completion_order.append(event.task.scenario.name)

        with Campaign(
            progress=progress,
            schedule=schedule,
            cost_model=TaskCostModel(sidecar),
        ) as campaign:
            results = campaign.run(tasks)
        total = time.perf_counter() - started
        return {
            "results": results,
            "completion_order": completion_order,
            "time_to_first_result": round(first_result_at, 6),
            "total_seconds": round(total, 6),
        }

    fifo = timed_campaign("fifo")
    cheapest = timed_campaign("cheapest")

    # Scheduling is order-only: the two passes return bit-identical
    # results in submission order ...
    fifo_digests = [trajectory_digest(result) for result in fifo["results"]]
    cheapest_digests = [
        trajectory_digest(result) for result in cheapest["results"]
    ]
    assert fifo_digests == cheapest_digests
    # ... while the warmed model really inverted the dispatch order and
    # with it the time to the first streamed figure.
    assert fifo["completion_order"] == list(SCHEDULER_SCENARIOS)
    assert cheapest["completion_order"] == list(reversed(SCHEDULER_SCENARIOS))
    assert cheapest["time_to_first_result"] < fifo["time_to_first_result"]

    def pass_record(record):
        return {
            "completion_order": record["completion_order"],
            "time_to_first_result_seconds": record["time_to_first_result"],
            "total_seconds": record["total_seconds"],
        }

    section = {
        "description": (
            "mixed-cost tiny sweep (scenarios submitted most-expensive-"
            "first), uncached; cheapest-first dispatch "
            "via the _costs.json cost model warmed by the fifo pass"
        ),
        "scenarios_submission_order": list(SCHEDULER_SCENARIOS),
        "profile": SCHEDULER_PROFILE,
        "fifo": pass_record(fifo),
        "cheapest": pass_record(cheapest),
        "time_to_first_result_speedup": round(
            fifo["time_to_first_result"] / cheapest["time_to_first_result"], 3
        ),
        "results_bit_identical": True,
    }

    path = output_dir / "BENCH_connectivity.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    document["scheduler"] = section
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    summary = (
        f"scheduler: time-to-first-figure {fifo['time_to_first_result']}s "
        f"(fifo) -> {cheapest['time_to_first_result']}s (cheapest), "
        f"{section['time_to_first_result_speedup']}x, results bit-identical"
    )
    txt_path = output_dir / "BENCH_connectivity.txt"
    lines = [
        line
        for line in txt_path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("scheduler:")
    ]
    lines.append(summary)
    txt_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"\n[scheduler -> {path}]\n{summary}")
