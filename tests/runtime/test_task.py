"""Tests for the experiment task unit: content keys and seed derivation."""

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.profiles import get_profile
from repro.experiments.scenarios import get_scenario
from repro.options import MeasurementSpec
from repro.runtime import ExperimentTask, derive_seed
from repro.runtime.campaign import replication_seeds


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
            "from repro.runtime import ExperimentTask\n"
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


class TestSeedDerivation:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "replication", 0) == derive_seed(42, "replication", 0)

    def test_derive_seed_varies_with_path_and_root(self):
        seeds = {
            derive_seed(42, "replication", 0),
            derive_seed(42, "replication", 1),
            derive_seed(43, "replication", 0),
            derive_seed(42, "other", 0),
        }
        assert len(seeds) == 4

    def test_replication_seeds_grow_stably(self):
        """Growing a campaign keeps the earlier seeds (and cached runs)."""
        assert replication_seeds(42, 5) == replication_seeds(42, 8)[:5]
        assert len(set(replication_seeds(42, 8))) == 8
