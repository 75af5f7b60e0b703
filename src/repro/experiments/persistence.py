"""Persistence of experiment results.

The paper's workflow separates the expensive simulation/evaluation from the
analysis: snapshots and flow results are written to files, aggregated later.
This module provides the same separation for our runs: an
:class:`ExperimentResult` can be exported to a JSON document containing the
scenario, phase schedule and the full connectivity time series, and loaded
back for later reporting without re-running the simulation.

Snapshots themselves (which can be large) are stored only when the result
holds them and ``include_snapshots=True``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.analyzer import ConnectivityReport
from repro.core.estimation import EstimatedConnectivityReport
from repro.core.timeseries import ConnectivitySample, ConnectivityTimeSeries
from repro.digest import sha256
from repro.experiments.phases import PhaseSchedule
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import Scenario
from repro.experiments.snapshot import RoutingTableSnapshot
from repro.simulator.transport import TransportStats

PathLike = Union[str, Path]

#: Format identifier written into every result document.
FORMAT_VERSION = 1


def result_to_dict(result: ExperimentResult, include_snapshots: bool = False) -> Dict:
    """Convert an :class:`ExperimentResult` into a JSON-serialisable dict."""
    document = {
        "format_version": FORMAT_VERSION,
        "scenario": {
            "name": result.scenario.name,
            "description": result.scenario.description,
            "size_class": result.scenario.size_class,
            "churn": result.scenario.churn,
            "traffic": result.scenario.traffic,
            "loss": result.scenario.loss,
            "bucket_size": result.scenario.bucket_size,
            "alpha": result.scenario.alpha,
            "bit_length": result.scenario.bit_length,
            "staleness_limit": result.scenario.staleness_limit,
            "bootstrap_reseed": result.scenario.bootstrap_reseed,
        },
        "profile_name": result.profile_name,
        "seed": result.seed,
        "joins": result.joins,
        "leaves": result.leaves,
        "wall_seconds": result.wall_seconds,
        "phases": {
            "setup_end": result.phases.setup_end,
            "stabilization_end": result.phases.stabilization_end,
            "simulation_end": result.phases.simulation_end,
        },
        "transport": {
            "requests_sent": result.transport_stats.requests_sent,
            "requests_lost": result.transport_stats.requests_lost,
            "responses_lost": result.transport_stats.responses_lost,
            "requests_to_dead_nodes": result.transport_stats.requests_to_dead_nodes,
            "round_trips_ok": result.transport_stats.round_trips_ok,
        },
        "series": {
            "label": result.series.label,
            "samples": [
                {
                    "time": sample.time,
                    "network_size": sample.network_size,
                    "report": sample.report.as_dict(),
                }
                for sample in result.series.samples
            ],
        },
    }
    # Kademlia results keep the pre-protocol-dimension encoding (no
    # "protocol" key): result documents feed the pinned trajectory
    # digests, which must stay byte-stable on the Kademlia path.
    if result.scenario.protocol != "kademlia":
        document["scenario"]["protocol"] = result.scenario.protocol
    if include_snapshots and result.snapshots:
        document["snapshots"] = [snapshot.to_document() for snapshot in result.snapshots]
    return document


def result_from_dict(document: Dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` output."""
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} (expected {FORMAT_VERSION})"
        )
    scenario_data = document["scenario"]
    scenario = Scenario(
        name=scenario_data["name"],
        description=scenario_data["description"],
        size_class=scenario_data["size_class"],
        churn=scenario_data["churn"],
        traffic=scenario_data["traffic"],
        loss=scenario_data["loss"],
        bucket_size=scenario_data["bucket_size"],
        alpha=scenario_data["alpha"],
        bit_length=scenario_data["bit_length"],
        staleness_limit=scenario_data["staleness_limit"],
        # Documents written before the field was persisted default to the
        # Scenario default (True).
        bootstrap_reseed=scenario_data.get("bootstrap_reseed", True),
        # Pre-overlay documents (and all Kademlia ones) carry no protocol.
        protocol=scenario_data.get("protocol", "kademlia"),
    )
    phases = PhaseSchedule(
        setup_end=document["phases"]["setup_end"],
        stabilization_end=document["phases"]["stabilization_end"],
        simulation_end=document["phases"]["simulation_end"],
    )
    transport = TransportStats(
        requests_sent=document["transport"]["requests_sent"],
        requests_lost=document["transport"]["requests_lost"],
        responses_lost=document["transport"]["responses_lost"],
        requests_to_dead_nodes=document["transport"]["requests_to_dead_nodes"],
        round_trips_ok=document["transport"]["round_trips_ok"],
    )
    series = ConnectivityTimeSeries(label=document["series"]["label"])
    for sample in document["series"]["samples"]:
        # Estimate-mode reports carry an "estimated": true marker;
        # exact-mode dicts never have the key (byte-stable encoding).
        report_doc = sample["report"]
        if report_doc.get("estimated"):
            report = EstimatedConnectivityReport.from_dict(report_doc)
        else:
            report = ConnectivityReport(**report_doc)
        series.append(
            ConnectivitySample(
                time=sample["time"],
                network_size=sample["network_size"],
                report=report,
            )
        )
    snapshots: List[RoutingTableSnapshot] = []
    for snapshot_doc in document.get("snapshots", []):
        snapshots.append(RoutingTableSnapshot.from_document(snapshot_doc))
    return ExperimentResult(
        scenario=scenario,
        profile_name=document["profile_name"],
        phases=phases,
        series=series,
        transport_stats=transport,
        seed=document["seed"],
        joins=document["joins"],
        leaves=document["leaves"],
        wall_seconds=document["wall_seconds"],
        snapshots=snapshots,
    )


def trajectory_digest(result: ExperimentResult) -> str:
    """Return a SHA-256 digest of everything deterministic about a result.

    The digest covers the scenario, phase schedule, transport counters,
    join/leave counts, the full connectivity time series and (when kept)
    the raw routing-table snapshots — every field of
    :func:`result_to_dict` except wall-clock timings
    (``wall_seconds`` and each report's ``elapsed_seconds``).

    Two runs of the same task must produce the same digest regardless of
    host, process placement, ``--jobs`` or ``--flow-jobs``; the
    determinism test suite pins digests of seeded runs across the
    simulator fast-path rewrite.
    """
    document = result_to_dict(result, include_snapshots=True)
    document.pop("wall_seconds", None)
    for sample in document["series"]["samples"]:
        sample["report"].pop("elapsed_seconds", None)
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def save_result(
    result: ExperimentResult, path: PathLike, include_snapshots: bool = False
) -> None:
    """Write ``result`` to ``path`` as JSON."""
    document = result_to_dict(result, include_snapshots=include_snapshots)
    Path(path).write_text(json.dumps(document, indent=2), encoding="utf-8")


def load_result(path: PathLike) -> ExperimentResult:
    """Load a result previously written by :func:`save_result`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return result_from_dict(document)
