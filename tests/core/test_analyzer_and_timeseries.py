"""Tests for the connectivity analyzer and time-series aggregation."""

import pytest

from repro.api import analyze_snapshot, synthetic_snapshot
from repro.core.analyzer import ConnectivityAnalyzer, ConnectivityReport
from repro.core.timeseries import ConnectivitySample, ConnectivityTimeSeries
from repro.graph.digraph import DiGraph
from repro.graph.generators import circulant_graph, complete_graph


def make_report(minimum=3, average=5.0, vertex_count=10):
    return ConnectivityReport(
        minimum=minimum, average=average, resilience=max(minimum - 1, 0),
        vertex_count=vertex_count, edge_count=vertex_count * 2,
        disconnected_count=0, strongly_connected=minimum > 0,
        symmetry_ratio=1.0, min_pairs_evaluated=4, avg_pairs_evaluated=4,
        exact=False, elapsed_seconds=0.01,
    )


class TestConnectivityAnalyzer:
    def test_exact_mode_matches_known_connectivity(self):
        analyzer = ConnectivityAnalyzer(source_fraction=None)
        report = analyzer.analyze_graph(circulant_graph(10, [1, 2]))
        assert report.minimum == 4
        assert report.average >= 4
        assert report.exact
        assert report.resilience == 3

    def test_sampled_mode_on_structured_graph(self):
        analyzer = ConnectivityAnalyzer(source_fraction=0.3, target_fraction=0.3,
                                        average_pairs=16, seed=1)
        report = analyzer.analyze_graph(circulant_graph(12, [1, 2]))
        assert report.minimum == 4
        assert report.average >= 4
        assert not report.exact

    def test_not_strongly_connected_short_circuits_to_zero(self):
        graph = DiGraph.from_edges([(1, 2), (2, 1), (3, 4), (4, 3)])
        analyzer = ConnectivityAnalyzer()
        report = analyzer.analyze_graph(graph)
        assert report.minimum == 0
        assert report.min_pairs_evaluated == 0
        assert not report.strongly_connected

    def test_empty_and_singleton_graphs(self):
        analyzer = ConnectivityAnalyzer()
        assert analyzer.analyze_graph(DiGraph()).minimum == 0
        lone = DiGraph()
        lone.add_vertex(1)
        report = analyzer.analyze_graph(lone)
        assert report.minimum == 0 and report.vertex_count == 1

    def test_complete_graph_fast_path(self):
        analyzer = ConnectivityAnalyzer()
        report = analyzer.analyze_graph(complete_graph(5))
        assert report.minimum == 4
        assert report.average == 4.0

    def test_disconnected_count_reported(self):
        graph = DiGraph.from_edges([(1, 2), (2, 1)])
        graph.add_vertex(3)
        report = ConnectivityAnalyzer().analyze_graph(graph)
        assert report.disconnected_count == 1
        assert report.minimum == 0

    def test_analyze_snapshot_from_tables(self):
        tables = {1: [2, 3], 2: [1, 3], 3: [1, 2]}
        report = ConnectivityAnalyzer().analyze_snapshot(tables)
        assert report.minimum == 2
        assert report.vertex_count == 3

    def test_average_pass_disabled(self):
        analyzer = ConnectivityAnalyzer(average_pairs=0)
        report = analyzer.analyze_graph(circulant_graph(10, [1, 2]))
        assert report.average == float(report.minimum)
        assert report.avg_pairs_evaluated == 0

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            ConnectivityAnalyzer(source_fraction=0.0)
        with pytest.raises(ValueError):
            ConnectivityAnalyzer(target_fraction=0.0)

    def test_report_as_dict(self):
        report = ConnectivityAnalyzer().analyze_graph(complete_graph(4))
        data = report.as_dict()
        assert data["minimum"] == 3
        assert data["resilience"] == 2
        assert "elapsed_seconds" in data


class TestExhaustiveOnTheEngine:
    """Exact mode's all-pairs pass runs on the analyzer's pair-flow engine."""

    def test_counters_record_every_exhaustive_flow(self, obs_enabled):
        report = analyze_snapshot(synthetic_snapshot(30, 5, seed=3))
        assert report.exact
        evaluated = obs_enabled.counter("pairflow.pairs_evaluated")
        assert evaluated == report.min_pairs_evaluated > 0
        assert obs_enabled.counter("maxflow.augmentations") > 0

    def test_flow_jobs_do_not_change_the_exhaustive_report(self):
        snapshot = synthetic_snapshot(30, 5, seed=3)
        reports = []
        for jobs in (1, 2):
            report = analyze_snapshot(snapshot, flow_jobs=jobs).as_dict()
            report.pop("elapsed_seconds")
            reports.append(report)
        assert reports[0]["exact"] and reports[0]["min_pairs_evaluated"] > 0
        assert reports[0] == reports[1]

    def test_exhaustive_flows_run_on_the_hosts_pool(self):
        with ConnectivityAnalyzer(source_fraction=None, flow_jobs=2) as analyzer:
            report = analyzer.analyze_graph(circulant_graph(10, [1, 2]))
            assert analyzer._flow_session is not None
        assert report.minimum == 4


class TestConnectivityTimeSeries:
    def test_append_requires_time_order(self):
        series = ConnectivityTimeSeries(label="test")
        series.append(ConnectivitySample(time=1.0, network_size=5, report=make_report()))
        with pytest.raises(ValueError):
            series.append(ConnectivitySample(time=0.5, network_size=5, report=make_report()))

    def test_series_extraction(self):
        series = ConnectivityTimeSeries(label="test")
        for t, minimum in [(1.0, 2), (2.0, 4), (3.0, 6)]:
            series.append(ConnectivitySample(
                time=t, network_size=10, report=make_report(minimum=minimum,
                                                            average=minimum + 1.0)))
        assert series.times() == [1.0, 2.0, 3.0]
        assert series.minimum_series() == [2, 4, 6]
        assert series.average_series() == [3.0, 5.0, 7.0]
        assert series.network_size_series() == [10, 10, 10]
        assert len(series) == 3
        assert series.final_sample().minimum == 6

    def test_window_and_aggregates(self):
        series = ConnectivityTimeSeries(label="test")
        for t, minimum in [(1.0, 2), (2.0, 4), (3.0, 6), (4.0, 8)]:
            series.append(ConnectivitySample(
                time=t, network_size=10, report=make_report(minimum=minimum)))
        window = series.window(2.0, 4.0)
        assert window.times() == [2.0, 3.0]
        assert series.mean_minimum(2.0) == pytest.approx((4 + 6 + 8) / 3)
        assert series.mean_minimum(10.0) == 0.0

    def test_relative_variance(self):
        series = ConnectivityTimeSeries(label="test")
        for t, minimum in [(1.0, 10), (2.0, 10), (3.0, 10)]:
            series.append(ConnectivitySample(
                time=t, network_size=10, report=make_report(minimum=minimum)))
        assert series.relative_variance_minimum() == 0.0

    def test_to_rows(self):
        series = ConnectivityTimeSeries(label="test")
        series.append(ConnectivitySample(time=1.0, network_size=7, report=make_report()))
        rows = series.to_rows()
        assert rows == [{"time": 1.0, "min": 3, "avg": 5.0, "network_size": 7}]
