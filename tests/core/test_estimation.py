"""Tests for the sampling-based connectivity estimator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import ConnectivityAnalyzer, ConnectivityReport
from repro.core.estimation import (
    ConnectivityEstimator,
    EstimatedConnectivityReport,
    validate_exact_vs_estimate,
)
from repro.core.vertex_connectivity import (
    connectivity_statistics,
    global_vertex_connectivity,
)
from repro.experiments.snapshot import synthetic_snapshot
from repro.graph.digraph import DiGraph


#: Every node lists every other node but its ring successor.
NEAR_COMPLETE_TABLES = {
    i: [j for j in range(30) if j not in (i, (i + 1) % 30)] for i in range(30)
}


def bidirectional_cycle(n: int) -> DiGraph:
    """C_n with both edge directions: kappa(s, t) == 2 for every pair."""
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
        graph.add_edge((i + 1) % n, i)
    return graph


def random_strongly_connected(n: int, extra: int, seed: int) -> DiGraph:
    """A directed ring (strongly connected) plus ``extra`` random chords."""
    rng = random.Random(seed)
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


class TestConstruction:
    def test_rejects_bad_sample_pairs(self):
        with pytest.raises(ValueError):
            ConnectivityEstimator(sample_pairs=0)

    def test_rejects_bad_ci_level(self):
        with pytest.raises(ValueError):
            ConnectivityEstimator(ci_level=1.0)
        with pytest.raises(ValueError):
            ConnectivityEstimator(ci_level=0.0)


def test_stratified_plan_is_the_per_vertex_plan():
    # Strata come from one degree list; members, order and weights are
    # those of a sort keyed by (out-degree, position).
    graph = random_strongly_connected(300, 900, seed=5)
    vertices = graph.vertices()
    n = len(vertices)
    out_degree = graph.out_degree
    order = sorted(range(n), key=lambda i: (out_degree(vertices[i]), i))
    position = 0
    for members, weight, _quota in ConnectivityEstimator(seed=1)._stratified_plan(
        graph, vertices
    ):
        assert members == [vertices[i] for i in order[position:position + len(members)]]
        assert weight == sum(n - 1 - out_degree(v) for v in members)
        position += len(members)
    assert position == n


class TestDegenerateGraphs:
    def test_empty_graph(self):
        report = ConnectivityEstimator().analyze_graph(DiGraph())
        assert report.minimum_bound == 0
        assert report.average_estimate == 0.0
        assert report.min_is_exact

    def test_single_vertex(self):
        graph = DiGraph()
        graph.add_vertex(1)
        report = ConnectivityEstimator().analyze_graph(graph)
        assert report.minimum_bound == 0
        assert report.min_is_exact

    def test_complete_graph_is_exact(self):
        graph = DiGraph()
        graph.add_vertices(range(5))
        for i in range(5):
            for j in range(5):
                if i != j:
                    graph.add_edge(i, j)
        report = ConnectivityEstimator(sample_pairs=4).analyze_graph(graph)
        assert report.minimum_bound == 4
        assert report.average_estimate == 4.0
        assert report.min_is_exact
        assert report.ci_width == 0.0

    def test_disconnected_graph_minimum_is_zero(self):
        graph = DiGraph()
        graph.add_vertices(range(6))
        for i in range(3):
            graph.add_edge(i, (i + 1) % 3)
        # vertices 3..5 are isolated -> not strongly connected
        report = ConnectivityEstimator(sample_pairs=8).analyze_graph(graph)
        assert report.minimum_bound == 0
        assert report.min_is_exact
        assert not report.strongly_connected


def directed_cycle(n: int) -> DiGraph:
    """C_n, one direction: strongly connected with every degree 1."""
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def dense_but_one_in_arc(n: int) -> DiGraph:
    """Complete on 0..n-2; vertex n-1 reaches all of them but is reached from 0 only."""
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n - 1):
        for j in range(n - 1):
            if i != j:
                graph.add_edge(i, j)
        graph.add_edge(n - 1, i)
    graph.add_edge(0, n - 1)
    return graph


def bidirected_path(n: int) -> DiGraph:
    """P_n with both edge directions: strongly connected, ends of degree 1."""
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
        graph.add_edge(i + 1, i)
    return graph


def figure_eight(n: int) -> DiGraph:
    """Two directed cycles through vertex 0, which is a cut vertex."""
    graph = DiGraph()
    graph.add_vertices(range(n))
    half = n // 2
    for loop in (range(1, half), range(half, n)):
        ring = [0, *loop]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            graph.add_edge(a, b)
    return graph


def circulant(n: int, offsets) -> DiGraph:
    """Every vertex i has arcs to i + d (mod n) for each offset d."""
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n):
        for d in offsets:
            graph.add_edge(i, (i + d) % n)
    return graph


class TestSampledMinimumExactness:
    """Strong connectivity proves kappa >= 1, so a bound of 1 is exact."""

    @pytest.mark.parametrize(
        "graph",
        [directed_cycle(12), dense_but_one_in_arc(12), bidirected_path(12),
         figure_eight(12)],
        ids=["directed-cycle", "one-in-arc-vertex", "bidirected-path",
             "figure-eight"],
    )
    def test_strongly_connected_bound_of_one_is_exact(self, graph):
        total = 12 * 11 - graph.number_of_edges()
        estimator = ConnectivityEstimator(sample_pairs=4, seed=3)
        assert estimator.sample_pairs < total  # the sampled pass, not exhaustive
        report = estimator.analyze_graph(graph)
        assert report.strongly_connected
        assert report.minimum_bound == 1 == global_vertex_connectivity(graph)
        assert report.min_is_exact

    @pytest.mark.parametrize(
        "graph, bound",
        [(bidirectional_cycle(16), 2), (circulant(16, (1, 2, -1, -2)), 4)],
        ids=["bidirectional-cycle", "circulant"],
    )
    def test_bound_above_one_from_a_short_sample_stays_inexact(self, graph, bound):
        report = ConnectivityEstimator(sample_pairs=4, seed=3).analyze_graph(graph)
        assert report.pairs_sampled == 4
        assert report.minimum_bound == bound
        assert not report.min_is_exact


class TestExactRecovery:
    def test_budget_covering_all_pairs_is_exhaustive(self):
        graph = bidirectional_cycle(8)
        total = 8 * 7 - graph.number_of_edges()
        report = ConnectivityEstimator(sample_pairs=total).analyze_graph(graph)
        assert report.pairs_sampled == total
        assert report.min_is_exact
        assert report.minimum_bound == 2
        assert report.average_estimate == pytest.approx(2.0)
        assert report.ci_low == report.ci_high == pytest.approx(2.0)

    def test_exhaustive_matches_exact_pipeline(self):
        graph = random_strongly_connected(10, extra=15, seed=3)
        stats = connectivity_statistics(graph)
        report = ConnectivityEstimator(sample_pairs=10_000).analyze_graph(graph)
        assert report.minimum_bound == stats.minimum
        assert report.average_estimate == pytest.approx(stats.average)
        assert report.min_is_exact


class TestSampledEstimates:
    def test_deterministic_for_fixed_seed(self):
        graph = random_strongly_connected(24, extra=40, seed=9)
        first = ConnectivityEstimator(sample_pairs=32, seed=5).analyze_graph(graph)
        second = ConnectivityEstimator(sample_pairs=32, seed=5).analyze_graph(graph)
        doc_a, doc_b = first.as_dict(), second.as_dict()
        doc_a.pop("elapsed_seconds"), doc_b.pop("elapsed_seconds")
        assert doc_a == doc_b

    def test_different_seeds_may_differ_but_stay_valid(self):
        graph = random_strongly_connected(24, extra=40, seed=9)
        stats = connectivity_statistics(graph)
        for seed in range(4):
            report = ConnectivityEstimator(
                sample_pairs=24, seed=seed
            ).analyze_graph(graph)
            assert report.minimum_bound >= stats.minimum or report.min_is_exact
            assert report.ci_low <= report.average_estimate <= report.ci_high

    def test_ci_width_narrows_with_budget_on_homogeneous_graph(self):
        graph = bidirectional_cycle(16)
        widths = []
        for budget in (8, 16, 32):
            report = ConnectivityEstimator(
                sample_pairs=budget, seed=1
            ).analyze_graph(graph)
            assert report.average_estimate == pytest.approx(2.0)
            widths.append(report.ci_width)
        assert widths[0] > widths[1] > widths[2] > 0.0

    def test_snapshot_estimates_deterministic_bracketed_and_narrowing(self):
        # The routing-table path on a Kademlia-shaped snapshot: one draw
        # per seed, the point estimate inside its interval, and more
        # pairs giving a strictly tighter interval.
        tables = synthetic_snapshot(1000, contacts_per_node=16, seed=42).routing_tables

        def run(budget):
            with ConnectivityEstimator(sample_pairs=budget, seed=42) as estimator:
                return estimator.analyze_snapshot(tables)

        first, second = run(16).as_dict(), run(16).as_dict()
        first.pop("elapsed_seconds"), second.pop("elapsed_seconds")
        assert first == second
        widths = []
        for budget in (16, 64, 256):
            report = run(budget)
            assert report.vertex_count == 1000
            assert report.ci_low <= report.average_estimate <= report.ci_high
            widths.append(report.ci_width)
        assert widths[0] > widths[1] > widths[2]

    def test_minimum_bound_dominates_exact_minimum(self):
        graph = random_strongly_connected(20, extra=30, seed=17)
        stats = connectivity_statistics(graph)
        report = ConnectivityEstimator(sample_pairs=16, seed=2).analyze_graph(graph)
        assert report.minimum_bound >= stats.minimum

    def test_obs_counters_recorded(self):
        from repro import obs

        graph = bidirectional_cycle(12)
        obs.enable()
        try:
            with obs.run_scope() as registry:
                ConnectivityEstimator(sample_pairs=8, seed=0).analyze_graph(graph)
                snapshot = registry.snapshot()
        finally:
            obs.disable()
        assert snapshot["counters"].get("estimation.runs") == 1
        assert snapshot["counters"].get("estimation.pairs_sampled") == 8
        assert snapshot["counters"].get("estimation.short_samples") == 0

    @pytest.mark.parametrize(
        "tables, sample_pairs, short",
        [
            # 30 ordered non-adjacent pairs among 870: rejection sampling
            # draws 3 of 16 before its attempts run out.
            (NEAR_COMPLETE_TABLES, 16, 1),
            # The budget covers all 30 pairs: exact recovery, not short.
            (NEAR_COMPLETE_TABLES, 64, 0),
            (synthetic_snapshot(80, 8, seed=5).routing_tables, 16, 0),
        ],
        ids=["near-complete", "near-complete-exhaustive", "sparse"],
    )
    def test_short_samples_counted_and_summarised(self, tables, sample_pairs, short):
        from repro import obs
        from repro.obs.summary import format_summary

        obs.enable()
        try:
            with obs.run_scope() as registry:
                report = ConnectivityEstimator(
                    sample_pairs=sample_pairs, seed=0
                ).analyze_snapshot(tables)
                snapshot = registry.snapshot()
        finally:
            obs.disable()
        assert report.short_sample is bool(short)
        assert snapshot["counters"]["estimation.short_samples"] == short
        assert f"| short samples: {short} |" in format_summary(snapshot)


class TestReportSurface:
    def _report(self) -> EstimatedConnectivityReport:
        graph = bidirectional_cycle(12)
        return ConnectivityEstimator(sample_pairs=8, seed=0).analyze_graph(graph)

    def test_protocol_properties(self):
        report = self._report()
        assert report.min_connectivity == report.minimum_bound
        assert report.avg_connectivity == report.average_estimate
        assert report.is_exact is False
        assert report.confidence_interval == (report.ci_low, report.ci_high)

    def test_exact_report_protocol_properties(self):
        graph = bidirectional_cycle(6)
        report = ConnectivityAnalyzer().analyze_graph(graph)
        assert isinstance(report, ConnectivityReport)
        assert report.min_connectivity == report.minimum
        assert report.avg_connectivity == report.average
        assert report.is_exact is True
        assert report.confidence_interval is None

    def test_as_dict_round_trip(self):
        report = self._report()
        document = report.as_dict()
        assert document["estimated"] is True
        restored = EstimatedConnectivityReport.from_dict(document)
        assert restored == report

    def test_as_dict_leads_with_marker(self):
        assert next(iter(self._report().as_dict())) == "estimated"


class TestValidationHarness:
    def test_validation_passes_on_random_graph(self):
        graph = random_strongly_connected(18, extra=25, seed=4)
        validation = validate_exact_vs_estimate(graph, sample_pairs=24, seed=1)
        assert validation.average_within_ci
        assert validation.minimum_bound_valid

    def test_validation_exact_recovery(self):
        graph = bidirectional_cycle(8)
        validation = validate_exact_vs_estimate(graph, sample_pairs=10_000)
        assert validation.estimate.min_is_exact
        assert validation.exact_average == pytest.approx(
            validation.estimate.average_estimate
        )
        assert validation.average_within_ci
        assert validation.minimum_bound_valid


# ----------------------------------------------------------------------
# Property-based tests (the ISSUE's hypothesis satellite).
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=20),
    budget=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_ci_deterministic_for_fixed_seed(n, budget, seed):
    graph = bidirectional_cycle(n)
    first = ConnectivityEstimator(sample_pairs=budget, seed=seed).analyze_graph(graph)
    second = ConnectivityEstimator(sample_pairs=budget, seed=seed).analyze_graph(graph)
    assert (first.ci_low, first.ci_high) == (second.ci_low, second.ci_high)
    assert first.average_estimate == second.average_estimate
    assert first.minimum_bound == second.minimum_bound


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=12, max_value=24),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_ci_narrows_monotonically_with_budget(n, seed):
    """On a kappa-homogeneous graph the width is a pure function of the
    budget, so doubling the sample must strictly shrink the interval."""
    graph = bidirectional_cycle(n)
    total = n * (n - 1) - graph.number_of_edges()
    budgets = [b for b in (4, 8, 16, 32) if b < total]
    widths = [
        ConnectivityEstimator(sample_pairs=b, seed=seed).analyze_graph(graph).ci_width
        for b in budgets
    ]
    assert all(earlier > later for earlier, later in zip(widths, widths[1:]))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    extra=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_exact_mode_recovered_when_budget_covers_all_pairs(n, extra, seed):
    graph = random_strongly_connected(n, extra=extra, seed=seed)
    stats = connectivity_statistics(graph)
    report = ConnectivityEstimator(
        sample_pairs=n * n, seed=seed
    ).analyze_graph(graph)
    assert report.min_is_exact
    assert report.minimum_bound == stats.minimum
    assert report.average_estimate == pytest.approx(stats.average)
    assert report.ci_width == 0.0
