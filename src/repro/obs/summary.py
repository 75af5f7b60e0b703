"""Human-readable summary and JSON export of a metrics snapshot.

Consumes the nested dict produced by
:meth:`repro.obs.registry.MetricsRegistry.snapshot`.  Because a campaign
merges per-task snapshots into its own registry (task *gauges* fold into
histograms, see :meth:`MetricsRegistry.merge`), a quantity like
``sim.events_per_sec`` may arrive as a gauge (single run) or as a
histogram (campaign of runs); the accessors below accept either and the
summary reports the mean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Schema tag written into ``--metrics-out`` documents.
METRICS_SCHEMA = "repro-obs-metrics/1"


def _counter(snapshot: Dict[str, Any], name: str) -> int:
    return int(snapshot.get("counters", {}).get(name, 0))


def _value(snapshot: Dict[str, Any], name: str) -> Optional[float]:
    """A gauge value, or the mean of the same-named merged histogram."""
    gauge = snapshot.get("gauges", {}).get(name)
    if gauge is not None:
        return float(gauge)
    histogram = snapshot.get("histograms", {}).get(name)
    if histogram and histogram.get("count"):
        return float(histogram["mean"])
    return None


def _hist(snapshot: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
    histogram = snapshot.get("histograms", {}).get(name)
    if histogram and histogram.get("count"):
        return histogram
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def format_summary(snapshot: Dict[str, Any]) -> str:
    """Render the per-layer one-liners of ``repro obs summary``.

    Every line is always present (zeros when a layer recorded nothing),
    so scripts can grep for a stable set of labels.
    """
    lines: List[str] = ["repro obs summary", "================="]

    # Runtime: campaign / executor -------------------------------------
    submitted = _counter(snapshot, "campaign.tasks_submitted")
    completed = _counter(snapshot, "campaign.tasks_completed")
    hits = _counter(snapshot, "campaign.cache_hits")
    workers = _value(snapshot, "campaign.workers")
    utilisation = _value(snapshot, "campaign.worker_utilisation")
    sessions = _counter(snapshot, "campaign.sessions_opened")
    batches = _counter(snapshot, "campaign.batches_dispatched")
    lines.append(
        f"campaign   tasks: {submitted} submitted, {completed} run, "
        f"{hits} cache hits | workers: {int(workers) if workers else 1} | "
        f"worker utilisation: {(utilisation or 0.0):.0%} | "
        f"batches: {batches} over {sessions} sessions"
    )

    # Runtime: result cache --------------------------------------------
    cache_hits = _value(snapshot, "cache.hits") or 0.0
    cache_misses = _value(snapshot, "cache.misses") or 0.0
    bytes_served = _value(snapshot, "cache.bytes_served") or 0.0
    lines.append(
        f"cache      hit rate: {_ratio(cache_hits, cache_hits + cache_misses):.0%} "
        f"({int(cache_hits)} hits / {int(cache_misses)} misses) | "
        f"bytes served: {int(bytes_served)}"
    )

    # Simulator ---------------------------------------------------------
    events = _counter(snapshot, "sim.events")
    events_per_sec = _value(snapshot, "sim.events_per_sec") or 0.0
    heap_live = _value(snapshot, "sim.heap_live") or 0.0
    heap_dead = _value(snapshot, "sim.heap_dead") or 0.0
    compactions = _counter(snapshot, "sim.heap_compactions")
    lines.append(
        f"simulator  events: {events} | events/sec: {events_per_sec:.0f} | "
        f"heap dead ratio: {_ratio(heap_dead, heap_live + heap_dead):.0%} | "
        f"compactions: {compactions}"
    )

    # Transport ---------------------------------------------------------
    ok = _counter(snapshot, "transport.round_trips_ok")
    failed = _counter(snapshot, "transport.round_trips_failed")
    message_counts = sorted(
        (
            (name.rsplit(".", 1)[1], count)
            for name, count in snapshot.get("counters", {}).items()
            if name.startswith("transport.messages.")
        ),
        key=lambda item: (-item[1], item[0]),
    )
    rendered = (
        ", ".join(f"{name}={count}" for name, count in message_counts[:4])
        or "none"
    )
    lines.append(
        f"transport  round-trips: {ok} ok, {failed} failed "
        f"(timeout rate: {_ratio(failed, ok + failed):.1%}) | "
        f"messages: {rendered}"
    )

    # Overlay protocols --------------------------------------------------
    # One line per registered overlay (kademlia, chord, pastry), each
    # reading the protocol-prefixed counters its implementation records
    # (``<name>.lookups``, ``<name>.lookup.virtual_latency``, ...).  The
    # registry import is deferred: repro.overlay imports the obs layer.
    from repro.overlay import overlay_names

    refresh_labels = {"kademlia": "bucket refreshes"}
    for protocol in overlay_names():
        lookups = _counter(snapshot, f"{protocol}.lookups")
        latency = _hist(snapshot, f"{protocol}.lookup.virtual_latency")
        rounds = _hist(snapshot, f"{protocol}.lookup.rounds")
        failed = _counter(snapshot, f"{protocol}.lookup.failed_rpcs")
        evictions = _counter(snapshot, f"{protocol}.evictions")
        refreshes = _counter(snapshot, f"{protocol}.refreshes")
        refresh_label = refresh_labels.get(protocol, "refreshes")
        line = (
            f"{protocol:<10} lookups: {lookups} | "
            f"mean lookup virtual-time latency: "
            f"{(latency['mean'] if latency else 0.0):.2f} RTT "
            f"({(rounds['mean'] if rounds else 0.0):.2f} rounds) | "
            f"{refresh_label}: {refreshes} | evictions: {evictions} | "
            f"failed RPCs: {failed}"
        )
        mentions = _counter(snapshot, f"{protocol}.lookup.mentions")
        if mentions:  # only lookups that defer their table refreshes count
            line += (
                f" | table: {mentions} mentions, "
                f"{_counter(snapshot, f'{protocol}.lookup.touches')} moves, "
                f"{_counter(snapshot, f'{protocol}.lookup.add_attempts')} add attempts"
            )
        direct_hops = _counter(snapshot, f"{protocol}.lookup.direct_hops")
        envelope_hops = _counter(snapshot, f"{protocol}.lookup.envelope_hops")
        if direct_hops or envelope_hops:
            line += f" | hops: {direct_hops} direct, {envelope_hops} in envelopes"
        lines.append(line)

    # Pair-flow engine ---------------------------------------------------
    pairs_submitted = _counter(snapshot, "pairflow.pairs_submitted")
    pairs_evaluated = _counter(snapshot, "pairflow.pairs_evaluated")
    pruned = _counter(snapshot, "pairflow.pairs_pruned")
    shards = _counter(snapshot, "pairflow.shards")
    line = (
        f"pairflow   pairs: {pairs_submitted} submitted, "
        f"{pairs_evaluated} evaluated "
        f"(prune rate: {_ratio(pruned, pairs_submitted):.0%}) | "
        f"shards: {shards}"
    )
    labelled = _counter(snapshot, "maxflow.vertices_labelled")
    if labelled:  # only the Dinic kernel counts; zero for the oracles
        line += (
            f" | kernel: {_counter(snapshot, 'maxflow.phases')} phases, "
            f"{_counter(snapshot, 'maxflow.augmentations')} augmentations, "
            f"{labelled} vertices labelled "
            f"({_counter(snapshot, 'maxflow.full_scans')} read whole), "
            f"{_counter(snapshot, 'maxflow.cutoff_hits')} cutoff hits"
        )
    lines.append(line)

    # Connectivity estimator --------------------------------------------
    est_runs = _counter(snapshot, "estimation.runs")
    est_sampled = _counter(snapshot, "estimation.pairs_sampled")
    est_evaluated = _counter(snapshot, "estimation.pairs_evaluated")
    est_pruned = _counter(snapshot, "estimation.pairs_pruned")
    est_short = _counter(snapshot, "estimation.short_samples")
    ci_width = _hist(snapshot, "estimation.ci_width")
    lines.append(
        f"estimate   runs: {est_runs} | pairs: {est_sampled} sampled, "
        f"{est_evaluated} evaluated, {est_pruned} pruned | "
        f"short samples: {est_short} | "
        f"mean CI width: {(ci_width['mean'] if ci_width else 0.0):.3f}"
    )
    return "\n".join(lines)


def write_metrics(path: Union[str, Path], snapshot: Dict[str, Any]) -> Path:
    """Write a metrics snapshot as a stable, diff-friendly JSON document."""
    path = Path(path)
    document = {"schema": METRICS_SCHEMA, "metrics": snapshot}
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
