"""Traced round: a staged replay of a workload, plus per-layer probes.

Every layer is measured from outside, by timing calls into its public
functions under a :class:`bench.trace.Tracer` span named after the module
the call enters.  The *staged replay* runs the same work as the untraced
operation, one layer at a time, and must reproduce its result (same
digests, same report fields) — the caller compares the two and counts a
mismatch as a failed operation.  The *probes* then time single layers on
the workload's own data (its tasks, results, and connectivity graph).

A metric the workload's code path never executes is not reported here;
the orchestrator prints it as 0.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench.stats import median, percentile
from bench.trace import Tracer
from bench.workloads import Check

#: Pairs of the kernel probe (each run once uncut and once cut off).
PROBE_PAIRS = 64


# ----------------------------------------------------------------------
# Staged replays
# ----------------------------------------------------------------------
def replay_task(tracer: Tracer, task) -> Tuple[object, object, Dict[str, int]]:
    """Run one simulation task stage by stage, as ``ExperimentRunner`` does.

    Returns the rebuilt :class:`ExperimentResult`, the task's last
    routing-table snapshot and the simulator's public counters.  The
    ``simulator.run`` span covers building, scheduling and running the
    simulation; snapshot capture, graph refresh and analysis are its
    children, so its self time is the event loop, Kademlia, overlay and
    churn together.
    """
    from repro.core.timeseries import ConnectivitySample, ConnectivityTimeSeries
    from repro.experiments.runner import ExperimentResult, ExperimentRunner

    runner = ExperimentRunner.for_task(task)
    scenario, profile = task.scenario, runner.profile
    series = ConnectivityTimeSeries(label=scenario.label())
    last_snapshot = None
    rows_seen = 0

    with tracer.span(
        "simulator.run", scenario=scenario.name, k=scenario.bucket_size, seed=task.seed
    ) as run_span:
        simulation = runner.build_simulation(scenario)
        phases = runner.phase_schedule(scenario)
        analyzer = runner.build_analyzer()

        def at_snapshot_time() -> None:
            nonlocal last_snapshot, rows_seen
            with tracer.span("experiments.simulation.snapshot"):
                snapshot = simulation.take_snapshot()
            with tracer.span("core.incremental.refresh"):
                graph = simulation.connectivity_graph()
            with tracer.span("core.analyzer.analyze") as span:
                report = analyzer.analyze_graph(graph)
                span.args["flows"] = (
                    report.min_pairs_evaluated + report.avg_pairs_evaluated
                )
            series.append(
                ConnectivitySample(
                    time=snapshot.time,
                    network_size=snapshot.network_size,
                    report=report,
                )
            )
            last_snapshot = snapshot
            rows_seen += snapshot.network_size

        size = profile.network_size(scenario.size_class)
        simulation.schedule_setup(size, profile.setup_minutes)
        simulation.schedule_traffic(1.0, phases.simulation_end)
        simulation.schedule_churn(phases.stabilization_end, phases.simulation_end)
        # What ``simulation.schedule_snapshots`` does, with the capture
        # inside our callback so that it gets a span of its own.
        for at in phases.snapshot_times(profile.snapshot_interval_minutes):
            simulation.simulator.schedule_at(at, at_snapshot_time, label="snapshot")
        started = time.perf_counter()
        with analyzer:
            simulation.run_until(phases.simulation_end)
        wall = time.perf_counter() - started
        counters = {
            "events": simulation.simulator.events_processed,
            "messages": simulation.transport.stats.requests_sent,
            "rows_rebuilt": simulation.graph_maintainer.rows_rebuilt,
            "rows_seen": rows_seen,
        }
        run_span.args.update(counters)

    result = ExperimentResult(
        scenario=scenario,
        profile_name=profile.name,
        phases=phases,
        series=series,
        transport_stats=simulation.transport.stats,
        seed=task.seed,
        joins=simulation.joins,
        leaves=simulation.leaves,
        wall_seconds=wall,
    )
    return result, last_snapshot, counters


def replay_campaign(tracer: Tracer, workload, inputs: dict) -> Tuple[dict, dict, dict]:
    """Staged replay of a campaign workload: every task, serially, uncached.

    Returns the replay's identity (to compare with the untraced
    operation), its layer metrics, and the data the probes need.
    """
    from repro.experiments.persistence import trajectory_digest
    from repro.experiments.report import format_table2

    results, snapshots = [], []
    totals = {"events": 0, "messages": 0, "rows_rebuilt": 0, "rows_seen": 0}
    for task in inputs["tasks"]:
        result, snapshot, counters = replay_task(tracer, task)
        results.append(result)
        snapshots.append(snapshot)
        for name, value in counters.items():
            totals[name] += value
    table = None
    if workload.render_table2:
        with tracer.span("experiments.report.format"):
            table = format_table2(results)

    self_times = tracer.self_times()
    simulator_s = self_times["simulator.run"]
    flows = sum(span.args.get("flows", 0) for span in tracer.spans)
    analyze_s = tracer.total("core.analyzer.analyze")
    metrics = {
        "simulator.run_s": simulator_s,
        "simulator.events": totals["events"],
        "simulator.events_per_s": totals["events"] / simulator_s,
        "simulator.messages": totals["messages"],
        "experiments.simulation.snapshot_s": tracer.total("experiments.simulation.snapshot"),
        "core.incremental.refresh_s": tracer.total("core.incremental.refresh"),
        "core.incremental.rebuild_ratio": totals["rows_rebuilt"] / totals["rows_seen"],
        "core.analyzer.analyze_s": analyze_s,
        "core.analyzer.flows": flows,
        "core.analyzer.flows_per_s": flows / analyze_s,
    }
    identity = {
        "digests": [trajectory_digest(result) for result in results],
        "table": table,
    }
    # Probe graph: the last snapshot of the task with the most vertices
    # among those whose final analysis still found non-adjacent pairs
    # (a complete graph has no flow to compute).
    candidates = [
        (snapshot.network_size, -index, snapshot)
        for index, (result, snapshot) in enumerate(zip(results, snapshots))
        if result.series.final_sample().report.avg_pairs_evaluated > 0
    ]
    probe_snapshot = max(candidates)[2] if candidates else None
    return identity, metrics, {"results": results, "snapshot": probe_snapshot}


def replay_snapshot(tracer: Tracer, workload, inputs: dict) -> Tuple[dict, dict, dict]:
    """Staged replay of a snapshot workload: load, build graph, analyze."""
    from repro.core.analyzer import ConnectivityAnalyzer
    from repro.core.connectivity_graph import build_connectivity_graph
    from repro.core.estimation import ConnectivityEstimator
    from repro.experiments.snapshot import RoutingTableSnapshot

    path, seed = inputs["path"], inputs["seed"]
    size = path.stat().st_size
    with tracer.span("experiments.snapshot.load", bytes=size):
        snapshot = RoutingTableSnapshot.load(path)
    with tracer.span("core.connectivity_graph.build") as span:
        graph = build_connectivity_graph(snapshot.routing_tables)
        span.args["edges"] = graph.number_of_edges()
    # The objects ``repro.api.analyze_snapshot`` builds for these arguments.
    if workload.mode == "estimate":
        layer = "core.estimation"
        host = ConnectivityEstimator(
            sample_pairs=workload.sample_pairs, ci_level=0.95, seed=seed
        )
    else:
        layer = "core.analyzer"
        host = ConnectivityAnalyzer(
            source_fraction=workload.sample_fraction,
            target_fraction=workload.sample_fraction,
            seed=seed,
        )
    with host, tracer.span(f"{layer}.analyze") as span:
        report = host.analyze_graph(graph)
        flows = report.min_pairs_evaluated + report.avg_pairs_evaluated
        span.args["flows"] = flows
    analyze_s = tracer.total(f"{layer}.analyze")
    metrics = {
        "experiments.snapshot.load_s": tracer.total("experiments.snapshot.load"),
        "experiments.snapshot.bytes": size,
        f"{layer}.analyze_s": analyze_s,
        f"{layer}.flows": flows,
        f"{layer}.flows_per_s": flows / analyze_s,
    }
    if workload.mode == "estimate":
        metrics["core.estimation.ci_width"] = report.ci_high - report.ci_low
    fields = report.as_dict()
    del fields["elapsed_seconds"]
    return {"report": fields}, metrics, {"results": [], "snapshot": snapshot}


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def probe_graph_layers(tracer: Tracer, snapshot, seed: int) -> Tuple[dict, List[Check]]:
    """Graph build, SCC, Even transform, flow kernel and pair-flow engine.

    All on the connectivity graph of ``snapshot``.  The kernel is called
    directly (``network.reset()`` + the registered Dinic solver) on
    ``PROBE_PAIRS`` sampled non-adjacent pairs, once run to maximality
    and once cut off at the graph's degree bound; the engine then
    evaluates the same pairs and must return the same values.
    """
    from repro.core.connectivity_graph import build_connectivity_graph
    from repro.core.vertex_connectivity import sample_non_adjacent_pairs
    from repro.graph.algorithms.components import strongly_connected_components
    from repro.graph.maxflow.base import network_flow_function
    from repro.graph.transform.even_transform import indexed_even_transform
    from repro.runtime.pairflow import PairFlowEngine

    with tracer.span("core.connectivity_graph.build") as span:
        graph = build_connectivity_graph(snapshot.routing_tables)
        span.args["edges"] = graph.number_of_edges()
    with tracer.span("graph.algorithms.scc"):
        strongly_connected_components(graph)
    with tracer.span("graph.transform.even") as span:
        transform = indexed_even_transform(graph)
        span.args["arcs"] = transform.network.arc_count()

    pairs = sample_non_adjacent_pairs(graph, PROBE_PAIRS, random.Random(seed))
    network, flow = transform.network, network_flow_function("dinic")
    bound = float(min(graph.min_out_degree(), graph.min_in_degree()))
    clock = time.perf_counter
    reset_ms: List[float] = []
    uncut_ms: List[float] = []
    cut_ms: List[float] = []
    uncut_values: List[int] = []
    cut_disagreements = 0
    with tracer.span("graph.maxflow.probe", pairs=len(pairs), cutoff=bound):
        for source, target in pairs:
            s, t = transform.flow_endpoint_indices(source, target)
            t0 = clock()
            network.reset()
            t1 = clock()
            value = flow(network, s, t, None)
            t2 = clock()
            network.reset()
            t3 = clock()
            cut_value = flow(network, s, t, bound)
            t4 = clock()
            reset_ms.append((t1 - t0) * 1e3)
            uncut_ms.append((t2 - t1) * 1e3)
            cut_ms.append((t4 - t3) * 1e3)
            uncut_values.append(int(round(value)))
            cut_disagreements += int(round(cut_value)) != min(uncut_values[-1], int(bound))

    with tracer.span("runtime.pairflow.build"):
        engine = PairFlowEngine(graph)
    with engine, tracer.span("runtime.pairflow.evaluate", pairs=len(pairs)):
        outcome = engine.evaluate(pairs, use_cutoff=False)
    checks = [
        ("cut-off flows equal min(uncut flow, cutoff)", cut_disagreements == 0),
        ("pair-flow engine values equal direct kernel values", outcome.values == uncut_values),
    ]

    metrics = {
        "core.connectivity_graph.build_s": tracer.durations("core.connectivity_graph.build")[-1],
        "core.connectivity_graph.edges": graph.number_of_edges(),
        "graph.algorithms.scc_s": tracer.total("graph.algorithms.scc"),
        "graph.transform.even_s": tracer.total("graph.transform.even"),
        "graph.transform.arcs": transform.network.arc_count(),
        "runtime.pairflow.build_s": tracer.total("runtime.pairflow.build"),
        "runtime.pairflow.evaluate_s": tracer.total("runtime.pairflow.evaluate"),
    }
    if pairs:
        direct_s = (sum(uncut_ms) + sum(reset_ms)) / 1e3
        metrics.update(
            {
                "graph.maxflow.uncut_flow_ms_p50": percentile(uncut_ms, 50),
                "graph.maxflow.uncut_flow_ms_p90": percentile(uncut_ms, 90),
                "graph.maxflow.cut_flow_ms_p50": percentile(cut_ms, 50),
                "graph.maxflow.cut_flow_ms_p90": percentile(cut_ms, 90),
                "graph.maxflow.reset_ms": median(reset_ms),
                "graph.maxflow.uncut_value_mean": statistics.fmean(uncut_values),
                "runtime.pairflow.overhead_ratio": metrics["runtime.pairflow.evaluate_s"] / direct_s,
            }
        )
    return metrics, checks


def probe_runtime_layers(
    tracer: Tracer, workload, tasks: list, results: list, tmp: Path
) -> Tuple[dict, List[Check]]:
    """Task keys, persistence codec and result cache on the workload's own results."""
    from repro.experiments.persistence import result_from_dict, result_to_dict, trajectory_digest
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import make_executor

    clock = time.perf_counter

    with tracer.span("runtime.task.key", tasks=len(tasks)):
        started = clock()
        for task in tasks:
            task.key()
        key_us = (clock() - started) / len(tasks) * 1e6

    encode_ms, decode_ms = [], []
    codec_changes = 0
    with tracer.span("experiments.persistence.codec", results=len(results)):
        for result in results:
            t0 = clock()
            document = result_to_dict(result)
            t1 = clock()
            decoded = result_from_dict(document)
            t2 = clock()
            encode_ms.append((t1 - t0) * 1e3)
            decode_ms.append((t2 - t1) * 1e3)
            codec_changes += trajectory_digest(decoded) != trajectory_digest(result)

    cache = ResultCache(tmp / "probe-cache")
    put_ms, get_ms, entry_bytes = [], [], []
    probe_misses = 0
    with tracer.span("runtime.cache.put", entries=len(tasks)):
        for task, result in zip(tasks, results):
            started = clock()
            path = cache.put(task, result)
            put_ms.append((clock() - started) * 1e3)
            entry_bytes.append(path.stat().st_size)
    with tracer.span("runtime.cache.get", entries=len(tasks)):
        for task in tasks:
            started = clock()
            hit = cache.get(task)
            get_ms.append((clock() - started) * 1e3)
            probe_misses += hit is None

    metrics = {
        "runtime.task.key_us": key_us,
        "experiments.persistence.encode_ms": median(encode_ms),
        "experiments.persistence.decode_ms": median(decode_ms),
        "runtime.cache.put_ms": median(put_ms),
        "runtime.cache.get_ms": median(get_ms),
        "runtime.cache.entry_bytes": median(entry_bytes),
    }
    if workload.jobs > 1:
        with tracer.span("runtime.executor.pool_open", jobs=workload.jobs):
            session = make_executor(workload.jobs).open_session()
            try:
                session.map(abs, list(range(workload.jobs)))
            finally:
                session.close()
        metrics["runtime.executor.pool_open_s"] = tracer.total("runtime.executor.pool_open")
    checks = [
        ("persistence round trip keeps every trajectory digest", codec_changes == 0),
        ("probe cache serves every entry it stored", probe_misses == 0),
    ]
    return metrics, checks


def probe_cli_import(tracer: Tracer, source_root: Path) -> dict:
    """``python -c "import repro.cli"`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(source_root))
    with tracer.span("cli.import"):
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, check=True
        )
    return {"cli.import_s": tracer.total("cli.import")}


def traced_round(
    workload, inputs: dict, seed: int, tmp: Path, source_root: Path
) -> dict:
    """Staged replay and every probe of one workload instance.

    Returns the replay's identity and duration, the layer metrics, the
    span records and the probes' output checks.
    """
    tracer = Tracer(workload.name)
    checks: List[Check] = []
    with tracer.span("bench.replay", workload=workload.name) as replay_span:
        if workload.kind == "campaign":
            identity, metrics, data = replay_campaign(tracer, workload, inputs)
        else:
            identity, metrics, data = replay_snapshot(tracer, workload, inputs)

    snapshot: Optional[object] = data["snapshot"]
    with tracer.span("bench.probes", workload=workload.name):
        if snapshot is not None:
            graph_metrics, graph_checks = probe_graph_layers(tracer, snapshot, seed)
            metrics.update(graph_metrics)
            checks += graph_checks
        if workload.kind == "campaign":
            runtime_metrics, runtime_checks = probe_runtime_layers(
                tracer, workload, inputs["tasks"], data["results"], tmp
            )
            metrics.update(runtime_metrics)
            checks += runtime_checks
        metrics.update(probe_cli_import(tracer, source_root))
    return {
        "identity": identity,
        "replay_s": replay_span.duration,
        "layers": metrics,
        "spans": tracer.to_records(),
        "checks": checks,
    }
