"""Parameter sweeps over scenarios.

The paper's figures sweep one protocol parameter while holding a scenario
fixed: bucket size ``k`` (Figures 2–9), parallelism ``alpha`` (Figure 10),
staleness limit ``s`` and loss level (Figures 11–14).  The helpers here run
those sweeps and return results keyed by the swept value, which is the form
the report generators and benchmarks consume.

Every sweep dispatches through :mod:`repro.runtime`: tasks are independent,
so ``execution.jobs > 1`` runs them on a process pool with bit-identical
output, and passing a :class:`~repro.runtime.cache.ResultCache` makes
repeated sweeps reuse finished runs instead of re-simulating them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.experiments.profiles import ScaleProfile
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import (
    PAPER_BUCKET_SIZES,
    PAPER_LOSS_LEVELS,
    PAPER_STALENESS_VALUES,
    Scenario,
)
from repro.options import ExecutionOptions, MeasurementSpec
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import ProgressCallback, sweep_tasks


def run_sweep(
    base: Scenario,
    overrides: Iterable[Mapping[str, object]],
    profile: ScaleProfile | str = "bench",
    seed: int = 42,
    measurement: MeasurementSpec = MeasurementSpec(),
    execution: ExecutionOptions = ExecutionOptions(),
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    keep_snapshots: bool = False,
) -> List[ExperimentResult]:
    """Run one variant of ``base`` per override set and return the results.

    The generic form behind every named sweep below; exposed for callers
    (CLI, benchmarks) that sweep custom dimension combinations.
    ``measurement`` says what every snapshot's analysis computes
    (identity-bearing); ``execution`` says how the runs are scheduled and
    placed — any value returns bit-identical results, in override order
    (see :mod:`repro.options` for both).
    """
    tasks = sweep_tasks(
        base, overrides, profile, seed, keep_snapshots=keep_snapshots,
        measurement=measurement, execution=execution,
    )
    with execution.campaign(cache=cache, progress=progress) as campaign:
        return campaign.run(tasks)


def run_scenario(scenario: Scenario, **run_options) -> ExperimentResult:
    """Run a single scenario; ``run_options`` are :func:`run_sweep`'s keywords."""
    return run_sweep(scenario, [{}], **run_options)[0]


def run_bucket_size_sweep(
    base: Scenario,
    bucket_sizes: Iterable[int] = PAPER_BUCKET_SIZES,
    **run_options,
) -> Dict[int, ExperimentResult]:
    """Run ``base`` once per bucket size (the k-sweep of Figures 2–9).

    ``run_options`` here and below are :func:`run_sweep`'s keywords.
    """
    bucket_sizes = list(bucket_sizes)
    results = run_sweep(
        base, [{"bucket_size": k} for k in bucket_sizes], **run_options
    )
    return dict(zip(bucket_sizes, results))


def run_alpha_sweep(
    base: Scenario,
    alphas: Iterable[int],
    bucket_sizes: Iterable[int] = PAPER_BUCKET_SIZES,
    **run_options,
) -> Dict[Tuple[int, int], ExperimentResult]:
    """Run the (alpha, k) grid behind Figure 10; keys are ``(alpha, k)``."""
    keys = [(alpha, k) for alpha in alphas for k in bucket_sizes]
    results = run_sweep(
        base,
        [{"alpha": alpha, "bucket_size": k} for alpha, k in keys],
        **run_options,
    )
    return dict(zip(keys, results))


def run_staleness_sweep(
    base: Scenario,
    staleness_values: Iterable[int] = PAPER_STALENESS_VALUES,
    **run_options,
) -> Dict[int, ExperimentResult]:
    """Run ``base`` once per staleness limit (Figure 11)."""
    staleness_values = list(staleness_values)
    results = run_sweep(
        base, [{"staleness_limit": s} for s in staleness_values], **run_options
    )
    return dict(zip(staleness_values, results))


def run_loss_sweep(
    base: Scenario,
    loss_levels: Iterable[str] = PAPER_LOSS_LEVELS,
    staleness_values: Iterable[int] = PAPER_STALENESS_VALUES,
    **run_options,
) -> Dict[Tuple[str, int], ExperimentResult]:
    """Run the (loss, s) grid behind Figures 12–14; keys are ``(loss, s)``."""
    keys = [(loss, s) for loss in loss_levels for s in staleness_values]
    results = run_sweep(
        base,
        [{"loss": loss, "staleness_limit": s} for loss, s in keys],
        **run_options,
    )
    return dict(zip(keys, results))
