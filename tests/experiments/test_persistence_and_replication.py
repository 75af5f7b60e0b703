"""Tests for result persistence and multi-seed replication."""

import json

import pytest

from repro.core.estimation import EstimatedConnectivityReport
from repro.experiments.persistence import (
    FORMAT_VERSION,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.experiments.replication import ReplicatedStatistic, replicate_scenario
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import get_scenario
from repro.options import ExecutionOptions, MeasurementSpec


@pytest.fixture(scope="module")
def tiny_result_with_snapshots():
    runner = ExperimentRunner(profile="tiny", seed=9, keep_snapshots=True)
    return runner.run(get_scenario("E").with_overrides(bucket_size=5))


class TestPersistence:
    def test_round_trip_preserves_series(self, tiny_result_with_snapshots, tmp_path):
        path = tmp_path / "result.json"
        save_result(tiny_result_with_snapshots, path)
        restored = load_result(path)
        assert restored.scenario.bucket_size == 5
        assert restored.scenario.churn == "1/1"
        assert restored.series.minimum_series() == \
            tiny_result_with_snapshots.series.minimum_series()
        assert restored.series.average_series() == \
            tiny_result_with_snapshots.series.average_series()
        assert restored.phases.simulation_end == \
            tiny_result_with_snapshots.phases.simulation_end
        assert restored.transport_stats.requests_sent == \
            tiny_result_with_snapshots.transport_stats.requests_sent

    def test_round_trip_preserves_summary_statistics(self, tiny_result_with_snapshots,
                                                     tmp_path):
        path = tmp_path / "result.json"
        save_result(tiny_result_with_snapshots, path)
        restored = load_result(path)
        assert restored.churn_mean_minimum() == pytest.approx(
            tiny_result_with_snapshots.churn_mean_minimum()
        )
        assert restored.churn_relative_variance_minimum() == pytest.approx(
            tiny_result_with_snapshots.churn_relative_variance_minimum()
        )

    def test_snapshots_only_when_requested(self, tiny_result_with_snapshots):
        without = result_to_dict(tiny_result_with_snapshots)
        with_snaps = result_to_dict(tiny_result_with_snapshots, include_snapshots=True)
        assert "snapshots" not in without
        assert len(with_snaps["snapshots"]) == len(tiny_result_with_snapshots.snapshots)
        restored = result_from_dict(with_snaps)
        assert restored.snapshots[0].routing_tables == \
            tiny_result_with_snapshots.snapshots[0].routing_tables

    def test_round_trip_preserves_all_recorded_fields(
        self, tiny_result_with_snapshots, tmp_path
    ):
        """transport_stats, wall_seconds and snapshots survive save/load."""
        original = tiny_result_with_snapshots
        path = tmp_path / "result.json"
        save_result(original, path, include_snapshots=True)
        restored = load_result(path)
        assert restored.transport_stats == original.transport_stats
        assert restored.wall_seconds == original.wall_seconds
        assert restored.joins == original.joins
        assert restored.leaves == original.leaves
        assert restored.seed == original.seed
        assert restored.profile_name == original.profile_name
        assert len(restored.snapshots) == len(original.snapshots)
        for restored_snap, original_snap in zip(restored.snapshots,
                                                original.snapshots):
            assert restored_snap.time == original_snap.time
            assert restored_snap.routing_tables == original_snap.routing_tables

    def test_round_trip_preserves_bootstrap_reseed(self, tmp_path):
        runner = ExperimentRunner(profile="tiny", seed=3)
        scenario = get_scenario("E").with_overrides(
            bucket_size=5, bootstrap_reseed=False
        )
        result = runner.run(scenario)
        path = tmp_path / "result.json"
        save_result(result, path)
        restored = load_result(path)
        assert restored.scenario.bootstrap_reseed is False
        assert restored.scenario == result.scenario

    def test_load_tolerates_documents_without_bootstrap_reseed(
        self, tiny_result_with_snapshots
    ):
        document = result_to_dict(tiny_result_with_snapshots)
        del document["scenario"]["bootstrap_reseed"]
        restored = result_from_dict(document)
        assert restored.scenario.bootstrap_reseed is True

    def test_format_version_checked(self, tiny_result_with_snapshots):
        document = result_to_dict(tiny_result_with_snapshots)
        document["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported result format"):
            result_from_dict(document)

    def test_document_is_json_serialisable(self, tiny_result_with_snapshots):
        document = result_to_dict(tiny_result_with_snapshots, include_snapshots=True)
        text = json.dumps(document)
        assert "routing_tables" in text


class TestReplication:
    def test_replicated_statistic_aggregates(self):
        stat = ReplicatedStatistic(name="x", values=[1.0, 2.0, 3.0])
        assert stat.mean == 2.0
        assert stat.minimum == 1.0
        assert stat.maximum == 3.0
        assert stat.std == pytest.approx(0.8165, abs=1e-3)
        assert stat.as_dict()["replications"] == 3

    def test_single_value_statistic(self):
        stat = ReplicatedStatistic(name="x", values=[4.0])
        assert stat.std == 0.0

    def test_replicate_scenario(self):
        summary = replicate_scenario(
            get_scenario("E").with_overrides(bucket_size=5),
            seeds=(1, 2),
            profile="tiny",
        )
        assert len(summary.results) == 2
        assert set(summary.statistics) == {
            "stabilized_min", "churn_mean_min", "churn_rv_min",
            "churn_mean_avg", "final_network_size",
        }
        churn_mean = summary.statistic("churn_mean_min")
        assert len(churn_mean.values) == 2
        assert churn_mean.minimum <= churn_mean.mean <= churn_mean.maximum
        rows = summary.as_rows()
        assert len(rows) == 5

    def test_replicate_in_estimate_mode_identical_across_jobs(self):
        # Replications take the same two option values as every other
        # entry point: estimate mode reaches the runs, and the worker
        # count leaves every aggregated statistic untouched.
        scenario = get_scenario("E").with_overrides(bucket_size=5)
        estimate = MeasurementSpec(connectivity="estimate", sample_pairs=32)
        serial, pooled = (
            replicate_scenario(
                scenario, seeds=(1, 2), profile="tiny", measurement=estimate,
                execution=ExecutionOptions(jobs=jobs),
            )
            for jobs in (1, 2)
        )
        for summary in (serial, pooled):
            assert all(
                isinstance(sample.report, EstimatedConnectivityReport)
                for result in summary.results
                for sample in result.series.samples
            )
        for name in serial.statistics:
            assert pooled.statistic(name).values == serial.statistic(name).values

    def test_replicate_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate_scenario(get_scenario("E"), seeds=())
