"""Sampled-pair connectivity estimation for deployment-scale graphs.

The paper's exact pipeline costs O(n^2) max-flows per snapshot (~250
CPU-hours for one 2500-node graph), which caps the reproduction at
paper scale.  This module is the road past that limit: a seeded,
deterministic estimator that analyzes 10^4-10^6-node connectivity
graphs with a fixed flow budget.

Estimation scheme
-----------------
*Average connectivity* — ordered non-adjacent pairs are sampled
**stratified by degree bound**: vertices are ranked by out-degree and
split into contiguous strata, each stratum receives a share of the pair
budget proportional to its number of non-adjacent ordered pairs (the
exact per-stratum population size, computable in O(n)), and every
sampled pair is evaluated *exactly* through the batched
:class:`~repro.runtime.pairflow.PairFlowEngine` — so ``--flow-jobs``
applies unchanged.  The
stratified mean is reported with a confidence interval built from the
per-stratum sample variance plus one pseudo-observation at the
conservative range variance (Popoviciu's ``B^2/4`` for values bounded
by the stratum's degree bound ``B``) — the regularisation keeps tiny
samples from reporting a dishonest zero-width interval and makes the
width a smooth, strictly shrinking function of the budget on
homogeneous graphs.  The whole computation is a pure function of
``(graph, seed, budget)``: the rng stream never depends on a flow
value, so serial and parallel runs report identical estimates bit for
bit.

*Minimum connectivity* — an upper **bound**, not an exact minimum:
``min(degree bound, sample minimum)``, where the degree bound is
``min(min out-degree, min in-degree)`` and the sample minimum is the
smallest exact ``kappa`` of the average pass.  No flow runs for it.
``pairs_pruned`` reports the size of the lowest-out-degree x
lowest-in-degree candidate corner (the paper's ``c * n`` sampling,
Section 5.2); no candidate's own bound ``min(out_degree(s),
in_degree(t))`` lies below the global degree bound, so none is
evaluated.  The explicit ``min_is_exact`` flag is True only when the
bound is provably tight (graph not strongly connected, complete graph,
a strongly connected graph whose bound is 1 — strong connectivity
alone proves ``kappa >= 1`` — or the sample exhausted every
non-adjacent pair).  ROADMAP item 1
replaces this pass with the exact minimum.

Exact recovery — when the requested budget covers every non-adjacent
ordered pair, the estimator enumerates them all: the average equals the
exhaustive mean, the interval collapses to zero width and
``min_is_exact`` is True.  Recovery, the ``n <= 1`` and complete-graph
shortcuts, the engine and the report fields shared with the exact
pipeline come from :class:`~repro.core.analyzer.FlowEngineHost`; this
module adds the two passes above.

Results ship as :class:`EstimatedConnectivityReport` — deliberately
**not** bit-compatible with the exact pipeline's
:class:`~repro.core.analyzer.ConnectivityReport` (its own task
fingerprint dimension, its own persisted encoding) — but both satisfy
the shared report protocol (``min_connectivity`` / ``avg_connectivity``
/ ``is_exact`` / ``confidence_interval``) so downstream tables, figures
and observability never branch on the result class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Mapping, Tuple

from repro.core.analyzer import FlowEngineHost, PassFields
from repro.core.vertex_connectivity import (
    lowest_in_degree_vertices,
    lowest_out_degree_vertices,
)
from repro.graph.digraph import DiGraph
from repro.options import ExecutionOptions, MeasurementSpec
from repro.runtime.pairflow import PairFlowEngine

#: Number of degree-bound strata of the average pass.
STRATA = 4
#: Minimum-pass candidate corner: ``max(MIN_CANDIDATES, ceil(MIN_FRACTION
#: * n))`` lowest-out-degree sources x lowest-in-degree targets.
MIN_FRACTION = 0.02
MIN_CANDIDATES = 8


@dataclass(frozen=True)
class EstimatedConnectivityReport:
    """Estimate-mode counterpart of :class:`ConnectivityReport`.

    Attributes
    ----------
    minimum_bound / min_is_exact:
        Upper bound ``min(degree bound, sample minimum)`` on
        ``kappa(D)`` and whether it is provably the exact minimum (see
        module docstring).
    average_estimate / ci_low / ci_high / ci_level:
        Stratified estimate of the mean pairwise connectivity and its
        two-sided confidence interval at ``ci_level``.
    sample_pairs / pairs_sampled:
        Requested pair budget and the number of pairs actually drawn for
        the average pass (rejection sampling on near-complete strata can
        fall short of the quota).
    pairs_pruned:
        Size of the minimum pass's candidate corner; none of it is
        evaluated, because no candidate's degree bound lies below the
        global one.
    min_pairs_evaluated / avg_pairs_evaluated:
        Max-flow computations spent on each pass (the minimum pass
        spends none).
    resilience:
        ``max(minimum_bound - 1, 0)`` — an upper bound on the tolerated
        attacker budget (Equation 2), exact iff ``min_is_exact``.
    vertex_count / edge_count / disconnected_count / strongly_connected /
    symmetry_ratio / seed / elapsed_seconds:
        Same meaning as on the exact report.
    """

    minimum_bound: int
    min_is_exact: bool
    average_estimate: float
    ci_low: float
    ci_high: float
    ci_level: float
    sample_pairs: int
    pairs_sampled: int
    pairs_pruned: int
    min_pairs_evaluated: int
    avg_pairs_evaluated: int
    resilience: int
    vertex_count: int
    edge_count: int
    disconnected_count: int
    strongly_connected: bool
    symmetry_ratio: float
    seed: int
    elapsed_seconds: float

    # -- shared report protocol (see ConnectivityReport) ----------------
    @property
    def min_connectivity(self) -> int:
        """Protocol accessor: the reported minimum (here: an upper bound)."""
        return self.minimum_bound

    @property
    def avg_connectivity(self) -> float:
        """Protocol accessor: the reported average connectivity."""
        return self.average_estimate

    @property
    def is_exact(self) -> bool:
        """Protocol accessor: estimated reports are never exact-mode."""
        return False

    @property
    def confidence_interval(self) -> Tuple[float, float]:
        """Protocol accessor: ``(ci_low, ci_high)``."""
        return (self.ci_low, self.ci_high)

    @property
    def ci_width(self) -> float:
        """Width of the confidence interval (0.0 on exact recovery)."""
        return self.ci_high - self.ci_low

    @property
    def short_sample(self) -> bool:
        """Whether rejection sampling drew fewer pairs than it could.

        True when ``pairs_sampled`` is below the ``sample_pairs`` budget
        although the graph has more ordered non-adjacent pairs than were
        drawn: the interval rests on a thinner sample than asked for.
        Exact recovery, where the budget covers every such pair, is not
        short.
        """
        available = self.vertex_count * (self.vertex_count - 1) - self.edge_count
        return self.pairs_sampled < min(self.sample_pairs, available)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-friendly encoding.

        The leading ``"estimated": True`` marker is the persistence
        discriminator between the two report classes; exact-mode report
        dicts never carry the key, so their bytes are untouched.
        """
        return {
            "estimated": True,
            "minimum_bound": self.minimum_bound,
            "min_is_exact": self.min_is_exact,
            "average_estimate": self.average_estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci_level": self.ci_level,
            "sample_pairs": self.sample_pairs,
            "pairs_sampled": self.pairs_sampled,
            "pairs_pruned": self.pairs_pruned,
            "min_pairs_evaluated": self.min_pairs_evaluated,
            "avg_pairs_evaluated": self.avg_pairs_evaluated,
            "resilience": self.resilience,
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "disconnected_count": self.disconnected_count,
            "strongly_connected": self.strongly_connected,
            "symmetry_ratio": self.symmetry_ratio,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "EstimatedConnectivityReport":
        """Rebuild a report from :meth:`as_dict` output."""
        fields = dict(data)
        fields.pop("estimated", None)
        return cls(**fields)


class ConnectivityEstimator(FlowEngineHost):
    """Drop-in estimation-mode analyzer (same ``analyze_*`` surface).

    The skeleton (shortcuts, exhaustive recovery, engine, shared report
    fields) is :class:`~repro.core.analyzer.FlowEngineHost`'s; this class
    adds the stratified average pass (:data:`STRATA` degree-bound strata)
    and the degree-bound minimum over a candidate corner of
    ``max(MIN_CANDIDATES, ceil(MIN_FRACTION * n))`` lowest-out-degree
    sources and as many lowest-in-degree targets.

    Parameters
    ----------
    sample_pairs:
        Ordered-pair budget of the average pass.  When it covers every
        non-adjacent ordered pair the estimator switches to exhaustive
        evaluation (exact recovery).
    ci_level:
        Two-sided confidence level of the reported interval, in (0, 1).
    seed:
        Seed of the sampling stream.  One stream persists across the
        snapshots an estimator instance sees (like the exact analyzer's),
        and it depends only on graph structure — never a flow value.
    algorithm / flow_jobs:
        Engine knobs, identical to :class:`ConnectivityAnalyzer`
        (``flow_jobs`` is identity-free: any value reports the same
        bits).
    """

    report_class = EstimatedConnectivityReport

    def __init__(
        self,
        sample_pairs: int = MeasurementSpec.sample_pairs,
        ci_level: float = MeasurementSpec.ci_level,
        seed: int = 0,
        algorithm: str = "dinic",
        flow_jobs: int = 1,
    ) -> None:
        if sample_pairs < 1:
            raise ValueError(f"sample_pairs must be >= 1, got {sample_pairs}")
        if not 0.0 < ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")
        super().__init__(algorithm=algorithm, seed=seed, flow_jobs=flow_jobs)
        self.sample_pairs = int(sample_pairs)
        self.ci_level = float(ci_level)
        # The normal quantile is a pure function of ci_level; hoist it so
        # every snapshot reports from the same constant.
        self._z = NormalDist().inv_cdf((1.0 + self.ci_level) / 2.0)

    # ------------------------------------------------------------------
    def _covers_every_pair(self, graph: DiGraph) -> bool:
        n = graph.number_of_vertices()
        return n * (n - 1) - graph.number_of_edges() <= self.sample_pairs

    def _exact_fields(self, minimum: int, average: float, pairs: int) -> PassFields:
        # Exact recovery: the interval collapses, the sample is every pair.
        return self._fields(
            minimum, True, average, (average, average), pairs, 0, pairs
        )

    def _sampled_fields(
        self, graph: DiGraph, engine: PairFlowEngine, strongly_connected: bool
    ) -> PassFields:
        vertices = graph.vertices()
        n = len(vertices)

        # -- average pass: stratified sample, exact kappa, CI ----------
        plan = self._stratified_plan(graph, vertices)
        pair_blocks = self._draw_pairs(graph, vertices, plan)
        flat_pairs = [pair for block in pair_blocks for pair in block]
        outcome = engine.evaluate(flat_pairs, use_cutoff=False)
        values = outcome.values
        average, ci = self._stratified_estimate(graph, plan, pair_blocks, values)

        # -- minimum pass: min(degree bound, sample minimum), no flow --
        # (see the module docstring for why the corner is never evaluated)
        if not strongly_connected:
            minimum = 0
            pruned = 0
        else:
            count = min(max(MIN_CANDIDATES, math.ceil(MIN_FRACTION * n)), n)
            sources = lowest_out_degree_vertices(graph, count)
            targets = lowest_in_degree_vertices(graph, count)
            has_edge = graph.has_edge
            pruned = sum(
                1
                for source in sources
                for target in targets
                if target != source and not has_edge(source, target)
            )
            minimum = min(graph.min_out_degree(), graph.min_in_degree(), *values)
        # Strong connectivity alone proves kappa >= 1, so a bound of 1 is
        # tight without a flow.
        min_is_exact = not strongly_connected or minimum == 1
        return self._fields(
            minimum, min_is_exact, average, ci, len(flat_pairs), pruned,
            outcome.pairs_evaluated,
        )

    def _fields(
        self,
        minimum: int,
        min_is_exact: bool,
        average: float,
        ci: Tuple[float, float],
        sampled: int,
        pruned: int,
        avg_pairs: int,
    ) -> PassFields:
        """The estimate-only report fields; the minimum pass runs no flow."""
        return minimum, dict(
            minimum_bound=minimum,
            min_is_exact=min_is_exact,
            average_estimate=average,
            ci_low=ci[0],
            ci_high=ci[1],
            ci_level=self.ci_level,
            sample_pairs=self.sample_pairs,
            pairs_sampled=sampled,
            pairs_pruned=pruned,
            min_pairs_evaluated=0,
            avg_pairs_evaluated=avg_pairs,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    def _stratified_plan(self, graph, vertices) -> List[Tuple[List, int, int]]:
        """Partition vertices into degree strata and allocate the budget.

        Returns ``[(members, weight, quota), ...]`` where ``weight`` is
        the stratum's exact ordered non-adjacent pair population
        (``sum over sources of n - 1 - out_degree``) and quotas follow
        the largest-remainder method over those weights — deterministic,
        and exactly proportional in the equal-weight (regular graph)
        case.
        """
        n = len(vertices)
        out_degrees = graph.out_degrees()
        # Stable: ties stay in vertex order.
        order = sorted(range(n), key=out_degrees.__getitem__)
        count = min(STRATA, n)
        base, extra = divmod(n, count)
        strata: List[Tuple[List, int]] = []
        position = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            chosen = order[position:position + size]
            members = [vertices[i] for i in chosen]
            position += size
            weight = size * (n - 1) - sum(map(out_degrees.__getitem__, chosen))
            strata.append((members, weight))
        total_weight = sum(weight for _, weight in strata)
        if total_weight <= 0:
            return [(members, weight, 0) for members, weight in strata]
        raw = [
            self.sample_pairs * weight / total_weight for _, weight in strata
        ]
        quotas = [int(share) for share in raw]
        remainder = self.sample_pairs - sum(quotas)
        by_fraction = sorted(
            range(len(strata)),
            key=lambda i: (-(raw[i] - quotas[i]), i),
        )
        for i in by_fraction[:remainder]:
            quotas[i] += 1
        return [
            (members, weight, quotas[i] if weight > 0 else 0)
            for i, (members, weight) in enumerate(strata)
        ]

    def _draw_pairs(self, graph, vertices, plan) -> List[List[Tuple]]:
        """Rejection-sample each stratum's quota of non-adjacent pairs.

        Sources are drawn uniformly from the stratum, targets uniformly
        from the whole graph; within a stratum this weights sources by
        their non-adjacent target count, which matches the stratum
        weights used by :meth:`_stratified_estimate` (the estimator stays
        unbiased over ordered non-adjacent pairs).  Attempts are bounded
        so near-complete strata terminate (with a short sample).
        """
        n = len(vertices)
        rng = self._rng
        has_edge = graph.has_edge
        blocks: List[List[Tuple]] = []
        for members, _weight, quota in plan:
            drawn: List[Tuple] = []
            attempts = 0
            max_attempts = quota * 10
            size = len(members)
            while len(drawn) < quota and attempts < max_attempts:
                attempts += 1
                source = members[rng.randrange(size)]
                target = vertices[rng.randrange(n)]
                if target == source or has_edge(source, target):
                    continue
                drawn.append((source, target))
            blocks.append(drawn)
        return blocks

    def _stratified_estimate(
        self, graph, plan, pair_blocks, values
    ) -> Tuple[float, Tuple[float, float]]:
        """Combine per-stratum means into the estimate and its interval.

        Per stratum: the sample mean, and a regularised variance
        ``(sum (x - mean)^2 + B^2/4) / n`` — the sum of squares plus one
        pseudo-observation at the conservative range variance, where
        ``B`` is the largest degree bound among the stratum's sampled
        pairs (Popoviciu: values in ``[0, B]`` have variance <= B^2/4).
        Stratum weights are the exact pair-population shares, so the
        combined mean is unbiased and its standard error shrinks as
        ``1/sqrt(quota)`` per stratum.
        """
        out_degree = graph.out_degree
        in_degree = graph.in_degree
        offset = 0
        terms: List[Tuple[int, float, float, int]] = []
        for (members, weight, _quota), block in zip(plan, pair_blocks):
            block_values = values[offset:offset + len(block)]
            offset += len(block)
            if not block_values:
                continue
            size = len(block_values)
            mean = sum(block_values) / size
            square_sum = sum((value - mean) ** 2 for value in block_values)
            bound = max(
                min(out_degree(source), in_degree(target))
                for source, target in block
            )
            variance = (square_sum + bound * bound / 4.0) / size
            terms.append((weight, mean, variance, size))
        if not terms:
            return 0.0, (0.0, 0.0)
        total_weight = sum(weight for weight, _, _, _ in terms)
        estimate = sum(
            weight * mean for weight, mean, _, _ in terms
        ) / total_weight
        variance = sum(
            (weight / total_weight) ** 2 * var / size
            for weight, _, var, size in terms
        )
        half_width = self._z * variance ** 0.5
        return estimate, (max(0.0, estimate - half_width), estimate + half_width)

    def _record_obs(self, report: EstimatedConnectivityReport) -> None:
        from repro.obs import active as obs_active

        registry = obs_active()
        if registry is None:
            return
        registry.inc("estimation.runs")
        registry.inc("estimation.pairs_sampled", report.pairs_sampled)
        registry.inc(
            "estimation.pairs_evaluated",
            report.min_pairs_evaluated + report.avg_pairs_evaluated,
        )
        registry.inc("estimation.pairs_pruned", report.pairs_pruned)
        registry.inc("estimation.short_samples", int(report.short_sample))
        registry.observe("estimation.ci_width", report.ci_width)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EstimateValidation:
    """Outcome of one exact-vs-estimate comparison (validation harness)."""

    exact_minimum: int
    exact_average: float
    estimate: EstimatedConnectivityReport

    @property
    def average_within_ci(self) -> bool:
        """True when the exhaustive average lies inside the reported CI."""
        return (
            self.estimate.ci_low <= self.exact_average <= self.estimate.ci_high
        )

    @property
    def minimum_bound_valid(self) -> bool:
        """True when the bound dominates (and, if flagged exact, equals)
        the exhaustive minimum."""
        if self.estimate.min_is_exact:
            return self.estimate.minimum_bound == self.exact_minimum
        return self.estimate.minimum_bound >= self.exact_minimum


def validate_exact_vs_estimate(
    graph: DiGraph,
    sample_pairs: int = MeasurementSpec.sample_pairs,
    ci_level: float = MeasurementSpec.ci_level,
    seed: int = 0,
    algorithm: str = "dinic",
    flow_jobs: int = 1,
) -> EstimateValidation:
    """Run the exhaustive pipeline and the estimator on the same graph.

    The validation harness behind the CI estimator gate: on graphs small
    enough for the O(n^2) exact computation, the exhaustive average must
    fall inside the estimator's confidence interval and the minimum
    bound must dominate the exhaustive minimum.  ``EXPERIMENTS.md``
    documents running it at paper scale.
    """
    execution = ExecutionOptions(flow_jobs=flow_jobs)
    with MeasurementSpec(algorithm).analyzer(
        seed, execution, source_fraction=None
    ) as analyzer:
        exact = analyzer.analyze_graph(graph)
    measurement = MeasurementSpec(algorithm, "estimate", sample_pairs, ci_level)
    with measurement.analyzer(seed, execution) as estimator:
        estimate = estimator.analyze_graph(graph)
    return EstimateValidation(
        exact_minimum=exact.minimum,
        exact_average=exact.average,
        estimate=estimate,
    )
