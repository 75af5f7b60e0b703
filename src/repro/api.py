"""Stable public API of the reproduction toolkit.

``repro.api`` is the one import surface external callers (and the
``examples/`` directory) should use.  Everything else under ``repro.*``
is internal: modules move, signatures grow identity-free knobs, and the
runtime layers get refactored between releases — this facade absorbs
those changes.

Five entry points cover the common workflows:

``run_scenario`` / ``run_sweep``
    Run one scenario, or a sweep of parameter overrides, through the
    cached/parallel experiment runtime.  All scheduling and backend
    knobs are keyword-only; their names and defaults are the fields of
    :class:`MeasurementSpec` (what is measured — identity-bearing) and
    :class:`ExecutionOptions` (when and where it runs — identity-free),
    the two values the named sweeps and every internal layer take whole.
``analyze_snapshot``
    Connectivity + resilience of a routing-table snapshot (a
    :class:`RoutingTableSnapshot` or a path to one), in exact or
    estimate mode.
``estimate_connectivity``
    Sampled-pair connectivity estimation (average with a deterministic
    confidence interval, upper bound on the minimum) of a snapshot,
    a routing-table mapping, or an already-built connectivity graph —
    the only feasible mode beyond ~10^4 nodes.
``open_campaign``
    A configured :class:`repro.runtime.campaign.Campaign` as a context
    manager, for callers that build their own task lists.

The curated re-exports below (scenarios, profiles, result/report types,
analysis helpers, simulation primitives) are part of the same stability
contract; import them from here rather than their defining modules.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Union

# -- curated re-exports (stable surface) -------------------------------
from repro.analysis.figures import format_table
from repro.experiments.report import format_figure, format_summaries
from repro.churn.churn_model import get_churn_scenario
from repro.churn.loss import get_loss_model
from repro.churn.traffic import TrafficModel
from repro.core.analyzer import ConnectivityAnalyzer, ConnectivityReport
from repro.core.estimation import (
    ConnectivityEstimator,
    EstimatedConnectivityReport,
    EstimateValidation,
    validate_exact_vs_estimate,
)
from repro.core.resilience import ResilienceModel, resilience_of
from repro.experiments.profiles import PROFILES, ScaleProfile, get_profile
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import SCENARIOS, Scenario, get_scenario
from repro.experiments.simulation import OverlaySimulation
from repro.experiments.snapshot import RoutingTableSnapshot, synthetic_snapshot
from repro.experiments import sweep as _sweep
from repro.experiments.sweep import (
    run_alpha_sweep,
    run_bucket_size_sweep,
    run_loss_sweep,
    run_staleness_sweep,
)
from repro.extensions.evaluation import (
    disjoint_path_study,
    hardening_study,
    hardening_summary,
)
from repro.extensions.hardening import HardeningConfig
from repro.graph.algorithms.paths import vertex_disjoint_paths
from repro.graph.digraph import DiGraph
from repro.kademlia.config import KademliaConfig
from repro.options import ExecutionOptions, MeasurementSpec
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import Campaign
from repro.runtime.resilience import RetryPolicy
from repro.simulator.random_source import RandomSource

__all__ = [
    # entry points
    "run_scenario",
    "run_sweep",
    "analyze_snapshot",
    "estimate_connectivity",
    "open_campaign",
    # scenarios / profiles
    "Scenario",
    "get_scenario",
    "SCENARIOS",
    "ScaleProfile",
    "get_profile",
    "PROFILES",
    # results / reports
    "ExperimentResult",
    "ConnectivityReport",
    "EstimatedConnectivityReport",
    "EstimateValidation",
    "validate_exact_vs_estimate",
    # analysis helpers
    "format_figure",
    "format_summaries",
    "format_table",
    "ResilienceModel",
    "resilience_of",
    "vertex_disjoint_paths",
    # named sweeps
    "run_bucket_size_sweep",
    "run_alpha_sweep",
    "run_staleness_sweep",
    "run_loss_sweep",
    # extension studies
    "HardeningConfig",
    "hardening_study",
    "hardening_summary",
    "disjoint_path_study",
    # snapshots / graphs / measurement objects
    "RoutingTableSnapshot",
    "synthetic_snapshot",
    "DiGraph",
    "ConnectivityAnalyzer",
    "ConnectivityEstimator",
    "ExperimentRunner",
    # simulation primitives (quickstart-level control)
    "KademliaConfig",
    "OverlaySimulation",
    "TrafficModel",
    "get_churn_scenario",
    "get_loss_model",
    "RandomSource",
    # the knobs as two values (named sweeps, open_campaign callers)
    "MeasurementSpec",
    "ExecutionOptions",
    # runtime building blocks for open_campaign callers
    "Campaign",
    "ResultCache",
    "RetryPolicy",
]


def _resolve_scenario(scenario: Union[Scenario, str]) -> Scenario:
    return get_scenario(scenario) if isinstance(scenario, str) else scenario


def _open_cache(cache_dir: Optional[Union[str, Path]]) -> Optional[ResultCache]:
    return ResultCache(cache_dir) if cache_dir is not None else None


def run_scenario(
    scenario: Union[Scenario, str],
    *,
    profile: Union[ScaleProfile, str] = "bench",
    seed: int = 42,
    algorithm: str = MeasurementSpec.algorithm,
    connectivity: str = MeasurementSpec.connectivity,
    sample_pairs: int = MeasurementSpec.sample_pairs,
    ci_level: float = MeasurementSpec.ci_level,
    keep_snapshots: bool = False,
    jobs: int = ExecutionOptions.jobs,
    flow_jobs: int = ExecutionOptions.flow_jobs,
    cache_dir: Optional[Union[str, Path]] = None,
    schedule: str = ExecutionOptions.schedule,
    batch: Union[None, str, int] = ExecutionOptions.batch,
    backend: str = ExecutionOptions.backend,
    progress=None,
) -> ExperimentResult:
    """Run one scenario end-to-end and return its result.

    ``scenario`` is a scenario name (``"A"``–``"L"``) or a
    :class:`Scenario`.  ``connectivity`` selects exact or sampled-pair
    estimated per-snapshot measurement (identity-bearing, parameterised
    by ``sample_pairs`` / ``ci_level``).  Everything after ``seed`` is
    keyword-only; the scheduling/backend knobs (``jobs``, ``flow_jobs``,
    ``schedule``, ``batch``, ``backend``) are identity-free — any
    combination returns bit-identical results.  ``cache_dir`` enables
    the content-addressed result cache.
    """
    return run_sweep(
        scenario, [{}], profile=profile, seed=seed, algorithm=algorithm,
        connectivity=connectivity, sample_pairs=sample_pairs,
        ci_level=ci_level, keep_snapshots=keep_snapshots, jobs=jobs,
        flow_jobs=flow_jobs, cache_dir=cache_dir, schedule=schedule,
        batch=batch, backend=backend, progress=progress,
    )[0]


def run_sweep(
    scenario: Union[Scenario, str],
    overrides: Iterable[Mapping[str, object]],
    *,
    profile: Union[ScaleProfile, str] = "bench",
    seed: int = 42,
    algorithm: str = MeasurementSpec.algorithm,
    connectivity: str = MeasurementSpec.connectivity,
    sample_pairs: int = MeasurementSpec.sample_pairs,
    ci_level: float = MeasurementSpec.ci_level,
    keep_snapshots: bool = False,
    jobs: int = ExecutionOptions.jobs,
    flow_jobs: int = ExecutionOptions.flow_jobs,
    cache_dir: Optional[Union[str, Path]] = None,
    schedule: str = ExecutionOptions.schedule,
    batch: Union[None, str, int] = ExecutionOptions.batch,
    backend: str = ExecutionOptions.backend,
    progress=None,
) -> List[ExperimentResult]:
    """Run one variant of ``scenario`` per override mapping.

    The generic sweep: ``overrides`` is an iterable of scenario-field
    mappings (e.g. ``[{"bucket_size": 8}, {"bucket_size": 16}]``) and
    results come back in override order.  For the paper's named sweeps
    use :func:`run_bucket_size_sweep` and friends, which key their
    return values by the swept parameter and take the knobs as the two
    values (``measurement=MeasurementSpec(...)``,
    ``execution=ExecutionOptions(...)``).  Knob semantics match
    :func:`run_scenario`.
    """
    return _sweep.run_sweep(
        _resolve_scenario(scenario),
        overrides,
        profile=profile,
        seed=seed,
        measurement=MeasurementSpec(
            algorithm, connectivity, sample_pairs, ci_level
        ),
        execution=ExecutionOptions(
            jobs=jobs, flow_jobs=flow_jobs, schedule=schedule, batch=batch,
            backend=backend,
        ),
        cache=_open_cache(cache_dir),
        progress=progress,
        keep_snapshots=keep_snapshots,
    )


def analyze_snapshot(
    snapshot: Union[RoutingTableSnapshot, str, Path],
    *,
    connectivity: str = MeasurementSpec.connectivity,
    sample_pairs: int = MeasurementSpec.sample_pairs,
    ci_level: float = MeasurementSpec.ci_level,
    sample_fraction: Optional[float] = None,
    seed: int = 0,
    algorithm: str = MeasurementSpec.algorithm,
    flow_jobs: int = ExecutionOptions.flow_jobs,
):
    """Analyze a routing-table snapshot's connectivity and resilience.

    ``snapshot`` is a :class:`RoutingTableSnapshot` or a path to one
    saved as JSON.  ``connectivity="exact"`` runs the paper's pipeline —
    all pairs when ``sample_fraction`` is None, else the ``c * n``
    source/target sampling — and returns a :class:`ConnectivityReport`;
    ``"estimate"`` runs the sampled-pair estimator and returns an
    :class:`EstimatedConnectivityReport`.  Both satisfy the shared
    report protocol (``min_connectivity`` / ``avg_connectivity`` /
    ``is_exact`` / ``confidence_interval``).
    """
    if not isinstance(snapshot, RoutingTableSnapshot):
        snapshot = RoutingTableSnapshot.load(snapshot)
    measurement = MeasurementSpec(algorithm, connectivity, sample_pairs, ci_level)
    with measurement.analyzer(
        seed,
        ExecutionOptions(flow_jobs=flow_jobs),
        source_fraction=sample_fraction,
        target_fraction=sample_fraction if sample_fraction else 0.05,
    ) as analyzer:
        return analyzer.analyze_snapshot(snapshot.routing_tables)


def estimate_connectivity(
    source: Union[RoutingTableSnapshot, DiGraph, Mapping[int, Sequence[int]]],
    *,
    sample_pairs: int = MeasurementSpec.sample_pairs,
    ci_level: float = MeasurementSpec.ci_level,
    seed: int = 0,
    algorithm: str = MeasurementSpec.algorithm,
    flow_jobs: int = ExecutionOptions.flow_jobs,
) -> EstimatedConnectivityReport:
    """Estimate the connectivity of a snapshot, table mapping, or graph.

    The deployment-scale entry point: a stratified sample of ordered
    vertex pairs is evaluated exactly through the batched pair-flow
    engine, the average is reported with a seeded deterministic
    confidence interval at ``ci_level``, and the minimum is bounded by
    ``min(degree bound, sample minimum)`` without a further flow (see
    :mod:`repro.core.estimation`; ROADMAP item 1 makes it exact).
    ``flow_jobs`` is identity-free: any setting returns the same bits.
    """
    measurement = MeasurementSpec(algorithm, "estimate", sample_pairs, ci_level)
    with measurement.analyzer(
        seed, ExecutionOptions(flow_jobs=flow_jobs)
    ) as estimator:
        if isinstance(source, DiGraph):
            return estimator.analyze_graph(source)
        if isinstance(source, RoutingTableSnapshot):
            return estimator.analyze_snapshot(source.routing_tables)
        return estimator.analyze_snapshot(source)


def open_campaign(
    *,
    jobs: int = ExecutionOptions.jobs,
    cache_dir: Optional[Union[str, Path]] = None,
    schedule: str = ExecutionOptions.schedule,
    batch: Union[None, str, int] = ExecutionOptions.batch,
    backend: str = ExecutionOptions.backend,
    retry_policy: Optional[RetryPolicy] = ExecutionOptions.retries,
    progress=None,
) -> Campaign:
    """Build a configured :class:`Campaign` (use as a context manager).

    For callers that assemble their own :class:`ExperimentTask` lists
    (e.g. cross-scenario grids).  The campaign owns its executor and, on
    exit, its worker pools::

        with open_campaign(jobs=4, cache_dir=".cache") as campaign:
            results = campaign.run(tasks)
    """
    execution = ExecutionOptions(
        jobs=jobs, schedule=schedule, batch=batch, backend=backend,
        retries=retry_policy,
    )
    return execution.campaign(cache=_open_cache(cache_dir), progress=progress)
