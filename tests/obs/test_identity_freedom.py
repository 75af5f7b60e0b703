"""Observability must never move a simulated bit.

The contract gated here (and re-gated in CI with ``REPRO_OBS=1`` on the
full digest suite): enabling :mod:`repro.obs` — metrics registries on
every layer, per-run scopes, snapshots riding on results, campaign-level
merging — reproduces the golden trajectory digests and the committed
cache entries byte-identically.  Instrumentation reads the simulation;
it never feeds anything back into RNG draws, event ordering, fingerprints
or persisted documents.
"""

import copy
import json
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.persistence import trajectory_digest
from repro.experiments.profiles import ScaleProfile
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import Scenario, get_scenario
from repro.options import MeasurementSpec

SEED = 42

#: Golden digests captured by the pre-rewrite implementation; must match
#: tests/experiments/test_determinism_digest.py exactly.
GOLDEN_TINY_E = "fc166f8e8625eed963ae20e200a3027bf2b93f8174aff5307c98975aa0d5986f"
GOLDEN_TINY_A = "cf0f4cb8bbd8a497cef3a11ffaf3c432c46ecd92687f77000b93815d1a41dab9"

SAMPLED_ENTRIES_DIR = (
    Path(__file__).parent.parent / "experiments" / "data" / "sampled-cache-entries"
)


class TestDigestsWithObsEnabled:
    def test_serial_digest_unchanged_and_metrics_attached(self, obs_enabled):
        runner = ExperimentRunner(profile="tiny", seed=SEED, keep_snapshots=True)
        result = runner.run(get_scenario("E"))
        assert trajectory_digest(result) == GOLDEN_TINY_E
        # The run really was instrumented — the snapshot rides on the
        # transient field, outside the digest and outside persistence.
        assert result.obs_metrics is not None
        counters = result.obs_metrics["counters"]
        assert counters["sim.events"] > 0
        assert counters["kademlia.lookups"] > 0
        assert counters["transport.round_trips_ok"] > 0

    def test_digest_identical_to_uninstrumented_run(self):
        obs.disable()
        plain = ExperimentRunner(profile="tiny", seed=SEED, keep_snapshots=True)
        plain_result = plain.run(get_scenario("A"))
        assert plain_result.obs_metrics is None
        assert trajectory_digest(plain_result) == GOLDEN_TINY_A
        try:
            obs.enable()
            instrumented = ExperimentRunner(
                profile="tiny", seed=SEED, keep_snapshots=True
            )
            result = instrumented.run(get_scenario("A"))
        finally:
            obs.disable()
        assert trajectory_digest(result) == GOLDEN_TINY_A

    def test_fingerprint_carries_no_obs_key(self, obs_enabled):
        from repro.runtime.task import ExperimentTask

        task = ExperimentTask.create(
            scenario=get_scenario("E"), profile="tiny", seed=SEED
        )
        fingerprint = json.dumps(task.fingerprint()).lower()
        assert "obs" not in fingerprint
        assert "metric" not in fingerprint


class TestParallelCampaignWithObsEnabled:
    def test_sampled_entry_recomputes_byte_identically(
        self, obs_enabled, tmp_path
    ):
        """A 2-worker, fully instrumented campaign reproduces a
        committed cache entry byte for byte (wall-clock excluded), while
        progress events carry live metrics and the campaign registry
        accumulates the workers' per-run snapshots."""
        from repro.runtime.cache import ResultCache
        from repro.runtime.campaign import Campaign
        from repro.runtime.executor import ParallelExecutor
        from repro.runtime.task import ExperimentTask

        entry_path = min(
            SAMPLED_ENTRIES_DIR.glob("*.json"),
            key=lambda path: path.stat().st_size,
        )
        committed = json.loads(entry_path.read_text(encoding="utf-8"))
        fingerprint = committed["task"]
        task = ExperimentTask(
            scenario=Scenario(**fingerprint["scenario"]),
            profile=ScaleProfile(**fingerprint["profile"]),
            seed=fingerprint["seed"],
            keep_snapshots=fingerprint["keep_snapshots"],
            measurement=MeasurementSpec(algorithm=fingerprint["algorithm"]),
        )
        assert task.key() == committed["key"]

        events = []
        cache = ResultCache(tmp_path / "cache")
        with Campaign(
            executor=ParallelExecutor(jobs=2),
            cache=cache,
            progress=events.append,
        ) as campaign:
            result = campaign.run_one(task)

        fresh_path = tmp_path / "cache" / entry_path.name
        fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
        assert _normalised_entry(fresh) == _normalised_entry(committed)

        # The worker was instrumented (env export) and its snapshot came
        # back over the pickle boundary and into the campaign registry.
        assert result.obs_metrics is not None
        assert result.obs_metrics["counters"]["sim.events"] > 0
        assert obs_enabled.counter("sim.events") > 0
        assert obs_enabled.counter("campaign.tasks_completed") == 1
        assert obs_enabled.counter("campaign.batches_dispatched") == 1
        # Progress events carry the live metrics dict only while obs is on.
        assert events and all(event.metrics is not None for event in events)
        assert events[-1].metrics["completed"] == 1

    @pytest.mark.parametrize("cached", [0, 1, 3])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_uncached_task_is_its_own_flight(
        self, obs_enabled, tmp_path, jobs, cached
    ):
        """One dispatch path: the N uncached healthy tasks of a campaign
        go out as N one-task flights, and nothing is ever split."""
        from repro.runtime.cache import ResultCache
        from repro.runtime.campaign import Campaign
        from repro.runtime.executor import make_executor
        from repro.runtime.task import ExperimentTask

        tasks = [
            ExperimentTask.create(
                scenario=get_scenario("E").with_overrides(bucket_size=k),
                profile="tiny",
                seed=SEED,
            )
            for k in (3, 5, 8)
        ]
        cache = ResultCache(tmp_path / "cache")
        Campaign(cache=cache).run(tasks[:cached])
        obs_enabled.clear()
        with Campaign(executor=make_executor(jobs), cache=cache) as campaign:
            campaign.run(tasks)
        uncached = len(tasks) - cached
        assert obs_enabled.counter("campaign.tasks_completed") == len(tasks)
        assert obs_enabled.counter("campaign.cache_hits") == cached
        assert obs_enabled.counter("campaign.batches_dispatched") == uncached
        assert obs_enabled.counter("campaign.bisections") == 0
        assert obs_enabled.histogram("campaign.batch_size") is None

    def test_progress_metrics_absent_when_obs_off(self, tmp_path):
        from repro.runtime.cache import ResultCache
        from repro.runtime.campaign import Campaign
        from repro.runtime.task import ExperimentTask

        obs.disable()
        task = ExperimentTask.create(
            scenario=get_scenario("E"), profile="tiny", seed=SEED
        )
        events = []
        campaign = Campaign(
            cache=ResultCache(tmp_path / "cache"), progress=events.append
        )
        result = campaign.run_one(task)
        assert result.obs_metrics is None
        assert events and all(event.metrics is None for event in events)


def _normalised_entry(document: dict) -> str:
    """Canonical JSON with wall-clock fields removed (mirrors the digest
    suite's exclusions — everything else must compare byte-identically).
    The envelope-level integrity ``checksum`` covers the raw stored bytes
    including wall-clock fields, so it is excluded alongside them."""
    document = copy.deepcopy(document)
    document.pop("checksum", None)
    document["result"].pop("wall_seconds", None)
    for sample in document["result"]["series"]["samples"]:
        sample["report"].pop("elapsed_seconds", None)
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
