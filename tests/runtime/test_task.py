"""Tests for the experiment task unit: content keys and seed derivation."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.api import open_campaign
from repro.experiments.persistence import trajectory_digest
from repro.experiments.profiles import get_profile
from repro.experiments.scenarios import Scenario, get_scenario
from repro.options import MeasurementSpec
from repro.runtime.task import ExperimentTask


def make_task(**overrides):
    defaults = dict(
        scenario=get_scenario("E").with_overrides(bucket_size=5),
        profile="tiny",
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentTask.create(**defaults)


class TestTaskKey:
    def test_same_spec_same_key(self):
        assert make_task().key() == make_task().key()

    def test_key_depends_on_every_dimension(self):
        base = make_task()
        assert base.key() != make_task(seed=8).key()
        assert base.key() != make_task(profile="bench").key()
        assert base.key() != make_task(
            measurement=MeasurementSpec(algorithm="edmonds_karp")
        ).key()
        assert base.key() != make_task(keep_snapshots=True).key()
        assert base.key() != make_task(
            scenario=get_scenario("E").with_overrides(bucket_size=8)
        ).key()

    def test_profile_resolution_matches_object_form(self):
        by_name = make_task(profile="tiny")
        by_object = make_task(profile=get_profile("tiny"))
        assert by_name.key() == by_object.key()

    def test_key_is_stable_across_processes(self):
        """The content hash must not depend on per-process state.

        A fresh interpreter (fresh hash randomisation, fresh import order)
        must derive the same key for the same spec — the property the
        on-disk cache relies on.
        """
        task = make_task()
        script = (
            "from repro.experiments.scenarios import get_scenario\n"
            "from repro.runtime.task import ExperimentTask\n"
            "task = ExperimentTask.create(\n"
            "    scenario=get_scenario('E').with_overrides(bucket_size=5),\n"
            "    profile='tiny', seed=7)\n"
            "print(task.key())\n"
        )
        src_root = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        env["PYTHONHASHSEED"] = "random"
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert output == task.key()


class TestIdentityIsComputedOncePerObject:
    def count_fingerprints(self, monkeypatch):
        """Count fingerprint computations (each starts with ``asdict(scenario)``)."""
        import repro.runtime.task as task_module

        computed = []

        def counting_asdict(value):
            if isinstance(value, Scenario):
                computed.append(value)
            return dataclasses.asdict(value)

        monkeypatch.setattr(task_module, "asdict", counting_asdict)
        return computed

    def test_one_campaign_pass_fingerprints_each_task_once(self, monkeypatch, tmp_path):
        tasks = [make_task(seed=seed) for seed in (1, 2, 3)]
        computed = self.count_fingerprints(monkeypatch)
        with open_campaign(cache_dir=tmp_path) as campaign:
            cold = campaign.run(tasks)  # miss, run, store
        assert len(computed) == len(tasks)
        with open_campaign(cache_dir=tmp_path) as campaign:
            warm = campaign.run(tasks)  # path from the key, match on the fingerprint
        assert len(computed) == len(tasks)
        assert list(map(trajectory_digest, warm)) == list(map(trajectory_digest, cold))
        again = [make_task(seed=seed) for seed in (1, 2, 3)]
        with open_campaign(cache_dir=tmp_path) as campaign:
            campaign.run(again)
        assert len(computed) == 2 * len(tasks)

    def test_the_memo_is_not_part_of_the_value(self):
        task, other = make_task(), make_task()
        before = repr(task)
        key, fingerprint = task.key(), task.fingerprint()
        assert task.fingerprint() is fingerprint
        assert repr(task) == before and task == other and hash(task) == hash(other)
        assert {field.name for field in dataclasses.fields(task)} == {
            "scenario", "profile", "seed", "keep_snapshots", "measurement", "execution"
        }
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task and clone.key() == key

    def test_replace_starts_a_fresh_memo(self):
        task = make_task()
        key = task.key()
        changed = dataclasses.replace(task, seed=task.seed + 1)
        assert "_key" not in vars(changed) and "_fingerprint" not in vars(changed)
        assert changed.key() != key and changed.fingerprint()["seed"] == task.seed + 1
        assert changed.key() == make_task(seed=task.seed + 1).key()
        assert task.key() == key

