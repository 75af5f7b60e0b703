"""Estimation mode through the task/runner/persistence pipeline.

The contract under test is two-sided:

* **Exact mode is untouched.**  Tasks without ``connectivity="estimate"``
  fingerprint, serialize, and digest exactly as before the estimator
  landed — no new keys, no re-keyed caches.
* **Estimate mode is a distinct identity.**  Estimated runs carry a
  ``connectivity`` fingerprint dimension (mode, budget, CI level), their
  reports round-trip through persistence, and — like every analyzer —
  the estimate is invariant under the identity-free ``flow_jobs`` knob.
"""

import pytest

from repro.core.analyzer import ConnectivityReport
from repro.core.estimation import EstimatedConnectivityReport
from repro.experiments.persistence import (
    result_from_dict,
    result_to_dict,
    trajectory_digest,
)
from repro.experiments.profiles import get_profile
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import get_scenario
from repro.options import ExecutionOptions, MeasurementSpec
from repro.runtime.campaign import sweep_tasks
from repro.runtime.task import ExperimentTask

SEED = 42


def make_task(**measurement):
    return ExperimentTask.create(
        get_scenario("A"), get_profile("tiny"), SEED,
        measurement=MeasurementSpec(**measurement),
    )


class TestTaskFingerprint:
    def test_exact_fingerprint_has_no_connectivity_key(self):
        # Byte-stability: the default (exact) fingerprint must be
        # identical to what pre-estimator code produced, so existing
        # cache entries keep resolving.
        assert "connectivity" not in make_task().fingerprint()
        assert "connectivity" not in make_task(connectivity="exact").fingerprint()

    def test_estimate_fingerprint_carries_dimension(self):
        fingerprint = make_task(
            connectivity="estimate", sample_pairs=128, ci_level=0.9
        ).fingerprint()
        assert fingerprint["connectivity"] == {
            "mode": "estimate",
            "sample_pairs": 128,
            "ci_level": 0.9,
        }

    def test_exact_and_estimate_keys_differ(self):
        assert make_task().key() != make_task(connectivity="estimate").key()

    def test_sampling_parameters_are_identity_bearing(self):
        base = make_task(connectivity="estimate", sample_pairs=128)
        assert base.key() != make_task(
            connectivity="estimate", sample_pairs=256
        ).key()
        assert base.key() != make_task(
            connectivity="estimate", sample_pairs=128, ci_level=0.99
        ).key()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_task(connectivity="approximate")

    def test_sweep_tasks_thread_the_mode(self):
        tasks = sweep_tasks(
            get_scenario("A"),
            [{"bucket_size": 3}, {"bucket_size": 5}],
            profile=get_profile("tiny"),
            seed=SEED,
            measurement=MeasurementSpec(connectivity="estimate", sample_pairs=64),
        )
        for task in tasks:
            assert task.measurement.connectivity == "estimate"
            assert task.measurement.sample_pairs == 64


class TestRunnerEstimateMode:
    @pytest.fixture(scope="class")
    def estimate_result(self):
        runner = ExperimentRunner(
            profile="tiny", seed=SEED, keep_snapshots=True,
            measurement=MeasurementSpec(connectivity="estimate", sample_pairs=64),
        )
        return runner.run(get_scenario("A"))

    def test_samples_are_estimated_reports(self, estimate_result):
        reports = [s.report for s in estimate_result.series.samples]
        assert reports
        assert all(
            isinstance(report, EstimatedConnectivityReport) for report in reports
        )
        assert all(not report.is_exact for report in reports)

    def test_timeseries_reads_protocol_surface(self, estimate_result):
        series = estimate_result.series
        assert series.minimum_series()
        assert series.average_series()
        sample = series.samples[-1]
        assert sample.minimum == sample.report.min_connectivity
        assert sample.average == sample.report.avg_connectivity

    def test_exact_run_still_yields_exact_reports(self):
        runner = ExperimentRunner(profile="tiny", seed=SEED, keep_snapshots=True)
        result = runner.run(get_scenario("A"))
        assert all(
            type(s.report) is ConnectivityReport for s in result.series.samples
        )

    def test_persistence_round_trip(self, estimate_result):
        document = result_to_dict(estimate_result, include_snapshots=True)
        sample_doc = document["series"]["samples"][0]["report"]
        assert sample_doc["estimated"] is True
        restored = result_from_dict(document)
        assert isinstance(
            restored.series.samples[0].report, EstimatedConnectivityReport
        )
        assert trajectory_digest(restored) == trajectory_digest(estimate_result)

    def test_estimate_digest_invariant_under_scheduling_knobs(self, estimate_result):
        # flow_jobs is identity-free for the estimator exactly as for the
        # exact analyzer: the sampled pair set and every reported bit
        # must not move.
        knobbed = ExperimentRunner(
            profile="tiny", seed=SEED, keep_snapshots=True,
            measurement=MeasurementSpec(connectivity="estimate", sample_pairs=64),
            execution=ExecutionOptions(flow_jobs=2),
        ).run(get_scenario("A"))
        assert trajectory_digest(knobbed) == trajectory_digest(estimate_result)

    def test_for_task_round_trips_estimation_parameters(self):
        task = make_task(connectivity="estimate", sample_pairs=32, ci_level=0.9)
        runner = ExperimentRunner.for_task(task)
        assert runner.measurement == MeasurementSpec(
            connectivity="estimate", sample_pairs=32, ci_level=0.9
        )
