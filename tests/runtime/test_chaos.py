"""Chaos suite: fault-injected campaigns converge to fault-free results.

Every test runs the same tiny task grid twice — once clean (the golden
run) and once under an injected fault profile — and asserts the
trajectory digests are identical.  Faults may change how often work runs,
where it runs and what the cache suffers along the way; they must never
change a bit of any result.
"""

import os
import signal
import time

import pytest

from repro import obs
from repro.experiments.persistence import trajectory_digest
from repro.experiments.scenarios import get_scenario
from repro.runtime import campaign as campaign_module
from repro.runtime import faults
from repro.runtime.cache import QUARANTINE_DIRNAME, ResultCache
from repro.runtime.campaign import Campaign
from repro.runtime.executor import ParallelExecutor
from repro.runtime.resilience import CampaignInterrupted, RetryPolicy
from repro.runtime.task import ExperimentTask

#: Policy for chaos runs.  The attempt budget is generous because a
#: worker-crash profile charges attempts to whichever tasks happened to
#: be in flight when the pool broke.
CHAOS_POLICY = RetryPolicy(max_attempts=6)


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


def tiny_tasks(bucket_sizes=(3, 5, 8, 10)):
    base = get_scenario("E")
    return [
        ExperimentTask.create(
            scenario=base.with_overrides(bucket_size=k),
            profile="tiny",
            seed=11,
        )
        for k in bucket_sizes
    ]


def digests_of(results):
    return [trajectory_digest(result) for result in results]


def golden_digests(tasks):
    """Digests of a clean serial run (no faults, no cache)."""
    return digests_of(Campaign().run(tasks))


def _activate(monkeypatch, spec):
    monkeypatch.setenv(faults.ENV_VAR, spec)
    faults.reset()


class TestFaultedCampaignsConverge:
    def test_task_errors_heal_to_golden_digests(self, monkeypatch, tmp_path):
        tasks = tiny_tasks()
        golden = golden_digests(tasks)
        _activate(monkeypatch, "task-error@1,3")
        cache = ResultCache(tmp_path / "cache")
        with Campaign(cache=cache, retry_policy=CHAOS_POLICY) as campaign:
            results = campaign.run(tasks)
        assert digests_of(results) == golden
        assert cache.verify().clean

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_default_policy_retries_at_once(self, monkeypatch, jobs):
        """A retryable failure under the default ``RetryPolicy()`` is
        re-queued without waiting: nothing sleeps, the failed task heals
        on its second attempt and the digests are the golden ones."""
        tasks = tiny_tasks(bucket_sizes=(3, 5))
        golden = golden_digests(tasks)

        def no_sleep(seconds):
            pytest.fail(f"the campaign slept {seconds!r} s before a retry")

        # The stdlib function and any name the campaign module binds it to.
        for module in (time, campaign_module):
            monkeypatch.setattr(module, "sleep", no_sleep, raising=False)
        _activate(monkeypatch, "task-error@1")
        obs.disable()
        registry = obs.enable()
        try:
            executor = ParallelExecutor(jobs=jobs) if jobs > 1 else None
            with Campaign(
                executor=executor, retry_policy=RetryPolicy()
            ) as campaign:
                results = campaign.run(tasks)
        finally:
            obs.disable()
        assert digests_of(results) == golden
        assert registry.counter("campaign.retries") >= 1
        assert registry.counter("campaign.tasks_failed") == 0
        if jobs == 1:
            # One execution per task plus the one retry of the first.
            plan = faults.active_plan()
            assert plan.counters["task-error"] == len(tasks) + 1

    def test_worker_crashes_and_corruption_heal_to_golden_digests(
        self, monkeypatch, tmp_path
    ):
        """The acceptance scenario: 2-worker campaign under a
        worker-crash + cache-corruption profile, byte-identical to the
        fault-free golden run."""
        tasks = tiny_tasks()
        golden = golden_digests(tasks)
        cache_dir = tmp_path / "cache"

        # Chaos run: every worker crashes on its 2nd task; the first
        # entry stored by the driver lands corrupt on disk.
        _activate(monkeypatch, "worker-crash@2;corrupt-write@1")
        with Campaign(
            executor=ParallelExecutor(jobs=2),
            cache=ResultCache(cache_dir),
            retry_policy=CHAOS_POLICY,
        ) as campaign:
            chaos_results = campaign.run(tasks)
        assert digests_of(chaos_results) == golden

        # Clean warm re-run over the survivor cache: the corrupt entry is
        # quarantined and recomputed, everything else is served as hits —
        # and the digests still match the golden run bit for bit.
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reset()
        cache = ResultCache(cache_dir)
        with Campaign(cache=cache, retry_policy=CHAOS_POLICY) as campaign:
            warm_results = campaign.run(tasks)
        assert digests_of(warm_results) == golden
        assert cache.stats.corrupt_entries == 1
        quarantined = list((cache_dir / QUARANTINE_DIRNAME).iterdir())
        assert len(quarantined) == 1
        # After healing, the cache verifies clean end to end.
        assert cache.verify().clean
        assert cache.info().corrupt_entries == 1  # persisted for post-mortems

    def test_default_campaign_survives_worker_crashes(self, monkeypatch):
        """Nothing set but the executor — default flights of one, default
        ``RetryPolicy()`` — and every worker crashing on its 2nd task:
        ``run`` returns (no task failed permanently) the golden digests.
        A break with both workers busy charges neither flight, so the
        task left running beside the crashing one is never charged for
        it, however the workers of the next pool race."""
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8, 12, 16, 24))
        golden = golden_digests(tasks)
        _activate(monkeypatch, "worker-crash@2")
        with Campaign(executor=ParallelExecutor(jobs=2)) as campaign:
            results = campaign.run(tasks)
        assert digests_of(results) == golden

    def test_corrupt_read_quarantines_and_recomputes(
        self, monkeypatch, tmp_path
    ):
        tasks = tiny_tasks(bucket_sizes=(3, 5))
        golden = golden_digests(tasks)
        cache = ResultCache(tmp_path / "cache")
        with Campaign(cache=cache) as campaign:
            campaign.run(tasks)  # warm the cache cleanly

        _activate(monkeypatch, "corrupt-read@1")
        with Campaign(cache=cache, retry_policy=CHAOS_POLICY) as campaign:
            results = campaign.run(tasks)
        assert digests_of(results) == golden
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.hits == 1  # the other entry still served


class TestGracefulShutdown:
    @pytest.mark.parametrize("flushed", [1, 2, 3])
    def test_sigint_mid_campaign_flushes_then_resumes_warm(
        self, tmp_path, flushed
    ):
        tasks = tiny_tasks()
        golden = golden_digests(tasks)
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        events = []

        def interrupt_after(event):
            events.append(event)
            if len(events) == flushed:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(CampaignInterrupted) as exc_info:
            with Campaign(cache=cache, progress=interrupt_after) as campaign:
                campaign.run(tasks)
        interruption = exc_info.value
        assert interruption.signal_name == "SIGINT"
        # Every one-task flight that completed before the signal was
        # flushed; the next one was never dispatched.
        assert interruption.completed == flushed
        assert interruption.total == len(tasks)

        # The interrupted run's lookup stats were flushed to _meta.json
        # by the run() finally clause (cache consistency, satellite d).
        info = ResultCache(cache_dir).info()
        assert info.entries == flushed
        assert info.misses >= 2  # the pre-scan misses of the first run

        # The default SIGINT handler was restored on exit.
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

        # Warm re-run: the flushed results come back as hits, the rest
        # compute fresh, digests match the golden run.
        rerun_cache = ResultCache(cache_dir)
        rerun_events = []
        with Campaign(
            cache=rerun_cache, progress=rerun_events.append
        ) as campaign:
            results = campaign.run(tasks)
        assert digests_of(results) == golden
        assert rerun_cache.stats.hits == flushed
        statuses = [event.status for event in rerun_events]
        assert statuses.count("hit") == flushed
        assert statuses.count("completed") == len(tasks) - flushed

    def test_second_run_after_interrupt_uses_fresh_guard(self, tmp_path):
        # A campaign object survives an interrupt: the next run() installs
        # a fresh guard rather than seeing the stale requested flag.
        tasks = tiny_tasks(bucket_sizes=(3, 5))
        cache = ResultCache(tmp_path / "cache")

        def interrupt_first(event):
            os.kill(os.getpid(), signal.SIGINT)

        campaign = Campaign(cache=cache, progress=interrupt_first)
        with pytest.raises(CampaignInterrupted):
            campaign.run(tasks)
        campaign.progress = None
        results = campaign.run(tasks)
        campaign.close()
        assert len(results) == 2
