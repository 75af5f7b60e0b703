"""The experiment's knobs, declared once and passed whole.

Every cell of the paper's grid is "simulate, then measure min/avg vertex
connectivity per snapshot".  Two frozen values carry everything a caller
can choose about that measurement and about how the runs are executed;
every layer between the entry points (:mod:`repro.api`,
:mod:`repro.cli`) and the leaves that consume a knob takes the value
whole and never names an individual field (enforced by
``tests/test_options.py``):

:class:`MeasurementSpec`
    **Identity-bearing** — *what* is measured.  The one place the
    connectivity mode is validated, the one producer of the measurement
    part of a task fingerprint, and the one constructor of the
    per-snapshot analyzer objects.
:class:`ExecutionOptions`
    **Identity-free** — *when and where* work runs.  Any combination
    returns bit-identical results; a task fingerprint is computed without
    it (see :meth:`repro.runtime.task.ExperimentTask.fingerprint`).  The
    one builder of a configured campaign.

The field defaults below are the defaults of every surface: the facade's
keyword defaults and the CLI's flag defaults are read from these classes.

The module imports nothing from the package at import time (the
builders resolve their leaf classes lazily), so every layer — including
the leaves themselves — can import it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.runtime.cache import ResultCache
    from repro.runtime.campaign import Campaign, ProgressCallback
    from repro.runtime.resilience import RetryPolicy


@dataclass(frozen=True)
class ExecutionOptions:
    """Scheduling and placement of the work — never part of its identity.

    Attributes
    ----------
    jobs:
        Worker processes across experiment tasks (``1`` runs in-process).
    flow_jobs:
        Worker processes of the per-snapshot pair-flow engine *inside* a
        task or a snapshot analysis.
    retries:
        :class:`~repro.runtime.resilience.RetryPolicy` of the campaign's
        self-healing; ``None`` selects the default policy
        (``REPRO_CAMPAIGN_RETRIES`` aware).
    """

    jobs: int = 1
    flow_jobs: int = 1
    retries: Optional["RetryPolicy"] = None

    def campaign(
        self,
        cache: Optional["ResultCache"] = None,
        progress: Optional["ProgressCallback"] = None,
    ) -> "Campaign":
        """Build the configured :class:`Campaign` (use as a context manager).

        The campaign owns its executor and, on exit, its worker pool.
        """
        from repro.runtime.campaign import Campaign
        from repro.runtime.executor import make_executor

        return Campaign(
            executor=make_executor(self.jobs),
            cache=cache,
            progress=progress,
            retry_policy=self.retries,
        )


@dataclass(frozen=True)
class MeasurementSpec:
    """What is measured on every snapshot — part of a result's identity.

    Attributes
    ----------
    algorithm:
        Max-flow algorithm of the pairwise computations (``"dinic"``,
        ``"edmonds_karp"``, ``"push_relabel"``).
    connectivity:
        ``"exact"`` (the paper's pipeline) or ``"estimate"``
        (sampled-pair estimation with confidence intervals,
        :mod:`repro.core.estimation`).  Estimated results are
        statistically, not bit-, compatible with exact ones.
    sample_pairs / ci_level:
        Estimate-mode parameters: ordered-pair budget per snapshot and
        two-sided confidence level in (0, 1).  Ignored — and absent from
        the fingerprint — in exact mode.
    """

    algorithm: str = "dinic"
    connectivity: str = "exact"
    sample_pairs: int = 256
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if self.connectivity not in ("exact", "estimate"):
            raise ValueError(
                "connectivity must be 'exact' or 'estimate', "
                f"got {self.connectivity!r}"
            )
        # Canonical types: the fields are hashed into task fingerprints,
        # where ``64`` and ``64.0`` would be different experiments.
        object.__setattr__(self, "sample_pairs", int(self.sample_pairs))
        object.__setattr__(self, "ci_level", float(self.ci_level))

    def fingerprint(self) -> Dict:
        """The measurement's contribution to a task fingerprint.

        Exact mode keeps the pre-estimation encoding (no ``connectivity``
        key) so fingerprints, golden digests and committed cache entries
        of exact runs stay byte-identical.
        """
        fragment: Dict = {"algorithm": self.algorithm}
        if self.connectivity != "exact":
            fragment["connectivity"] = {
                "mode": self.connectivity,
                "sample_pairs": self.sample_pairs,
                "ci_level": self.ci_level,
            }
        return fragment

    def analyzer(
        self,
        seed: int,
        execution: ExecutionOptions = ExecutionOptions(),
        **pair_sampling,
    ):
        """Build the per-snapshot measurement object for this spec.

        Exact mode returns a :class:`~repro.core.analyzer
        .ConnectivityAnalyzer`, with ``pair_sampling`` as its
        ``source_fraction`` / ``target_fraction`` / ``average_pairs``
        (the paper's ``c * n`` corner; the class defaults when omitted).
        Estimate mode returns a :class:`~repro.core.estimation
        .ConnectivityEstimator`, whose pair budget is the spec's own
        ``sample_pairs`` — ``pair_sampling`` does not apply.  Both expose
        the same ``analyze_graph`` / ``analyze_snapshot`` /
        context-manager surface, so callers never branch on the mode.
        """
        if self.connectivity == "estimate":
            from repro.core.estimation import ConnectivityEstimator

            return ConnectivityEstimator(
                sample_pairs=self.sample_pairs,
                ci_level=self.ci_level,
                seed=seed,
                algorithm=self.algorithm,
                flow_jobs=execution.flow_jobs,
            )
        from repro.core.analyzer import ConnectivityAnalyzer

        return ConnectivityAnalyzer(
            algorithm=self.algorithm,
            seed=seed,
            flow_jobs=execution.flow_jobs,
            **pair_sampling,
        )
