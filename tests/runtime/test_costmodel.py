"""Tests for the persistent cost models behind straggler hedging."""

import json

import pytest

from repro.experiments.scenarios import get_scenario
from repro.runtime.cache import ResultCache
from repro.runtime.costmodel import (
    COSTS_FILENAME,
    MAX_OBSERVATIONS,
    CostModel,
    TaskCostModel,
    task_shape_key,
)
from repro.runtime.task import ExperimentTask


def make_task(scenario="E", profile="tiny", seed=1, **overrides):
    base = get_scenario(scenario)
    if overrides:
        base = base.with_overrides(**overrides)
    return ExperimentTask.create(scenario=base, profile=profile, seed=seed)


class TestCostModel:
    def test_observe_and_estimate(self):
        model = CostModel()
        assert model.estimate("x") is None
        model.observe("x", 2.0)
        model.observe("x", 4.0)
        assert model.estimate("x") == pytest.approx(3.0)
        assert model.observations("x") == 2
        assert len(model) == 1

    def test_negative_observations_ignored(self):
        model = CostModel()
        model.observe("x", -1.0)
        assert model.estimate("x") is None

    def test_observation_count_clamped(self):
        model = CostModel()
        for _ in range(MAX_OBSERVATIONS * 2):
            model.observe("x", 1.0)
        assert model.observations("x") == MAX_OBSERVATIONS
        # The clamp keeps the mean adaptive: a persistent change of the
        # observed cost moves the estimate measurably.
        for _ in range(MAX_OBSERVATIONS):
            model.observe("x", 3.0)
        assert model.estimate("x") > 1.5

    def test_round_trip_through_sidecar(self, tmp_path):
        path = tmp_path / "_costs.json"
        model = CostModel(path)
        model.observe("a", 1.5)
        model.observe("b", 0.25)
        model.save()
        reopened = CostModel(path)
        assert reopened.estimate("a") == pytest.approx(1.5)
        assert reopened.estimate("b") == pytest.approx(0.25)

    def test_save_without_observations_writes_nothing(self, tmp_path):
        path = tmp_path / "_costs.json"
        CostModel(path).save()
        assert not path.exists()

    def test_corrupt_sidecar_yields_empty_model(self, tmp_path):
        path = tmp_path / "_costs.json"
        path.write_text("{broken", encoding="utf-8")
        model = CostModel(path)
        assert len(model) == 0
        model.observe("x", 1.0)
        model.save()  # must overwrite the corrupt file cleanly
        assert CostModel(path).estimate("x") == pytest.approx(1.0)

    def test_wrong_shape_sidecar_yields_empty_model(self, tmp_path):
        path = tmp_path / "_costs.json"
        path.write_text(json.dumps({"entries": {"x": "nope"}}), encoding="utf-8")
        assert CostModel(path).estimate("x") is None


class TestTaskShapeKey:
    def test_coarse_dimensions_only(self):
        # Swept protocol parameters and seeds fold into one bucket ...
        assert task_shape_key(make_task(seed=1)) == task_shape_key(make_task(seed=2))
        assert task_shape_key(make_task(bucket_size=5)) == task_shape_key(
            make_task(bucket_size=30)
        )
        # ... while the cost-driving dimensions separate buckets.
        assert task_shape_key(make_task("E")) != task_shape_key(make_task("F"))  # size
        assert task_shape_key(make_task("E")) != task_shape_key(make_task("A"))  # churn
        assert task_shape_key(make_task(profile="tiny")) != task_shape_key(
            make_task(profile="smoke")
        )


class TestTaskCostModel:
    def test_for_cache_places_sidecar_outside_entry_namespace(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        model = TaskCostModel.for_cache(cache)
        model.observe_task(make_task(), 1.0)
        model.save()
        sidecar = cache.directory / COSTS_FILENAME
        assert sidecar.exists()
        assert cache.info().entries == 0  # never mistaken for an entry
        assert cache.clear() == 0
        assert sidecar.exists()  # clear() leaves the sidecar alone
