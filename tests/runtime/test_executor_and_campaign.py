"""Executor equivalence and campaign driver tests."""

import logging
import multiprocessing
import os
import re
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.experiments.persistence import trajectory_digest
from repro.experiments.replication import replicate_scenario
from repro.experiments.scenarios import get_scenario
from repro.experiments.sweep import run_bucket_size_sweep
from repro.options import ExecutionOptions
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import Campaign
from repro.runtime.executor import Executor, ParallelExecutor, SerialExecutor, make_executor
from repro.runtime.resilience import FAIL_FAST, CampaignTaskFailure, RetryPolicy
from repro.runtime.task import ExperimentTask, execute_task


def tiny_tasks(seeds=(11,), bucket_sizes=(3, 5)):
    base = get_scenario("E")
    return [
        ExperimentTask.create(
            scenario=base.with_overrides(bucket_size=k),
            profile="tiny",
            seed=seed,
        )
        for seed in seeds
        for k in bucket_sizes
    ]


def has_entry(cache, task):
    """Whether ``task``'s entry file exists (no stats update, no touch)."""
    return (cache.directory / f"{task.key()}.json").is_file()


def series_of(results):
    return [
        (
            result.series.times(),
            result.series.minimum_series(),
            result.series.average_series(),
            result.series.network_size_series(),
            result.transport_stats,
            result.joins,
            result.leaves,
        )
        for result in results
    ]


class TestExecutors:
    def test_make_executor_selects_backend(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(4), ParallelExecutor)
        assert make_executor(4).jobs == 4

    def test_parallel_jobs_validated(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_make_executor_rejects_non_positive_jobs(self):
        # Historically 0 / negative silently degraded to serial execution.
        with pytest.raises(ValueError):
            make_executor(0)
        with pytest.raises(ValueError):
            make_executor(-3)

    def test_executor_surface_is_sessions_and_worker_count(self):
        public = {name for name in vars(Executor) if not name.startswith("_")}
        assert public == {"open_session", "worker_count"}

    def test_parallel_matches_serial(self):
        """Same seeds through both executors -> identical time series."""
        tasks = tiny_tasks()
        serial = Campaign(executor=SerialExecutor()).run(tasks)
        with Campaign(executor=ParallelExecutor(jobs=2)) as campaign:
            parallel = campaign.run(tasks)
        assert series_of(serial) == series_of(parallel)

    def test_results_in_submission_order(self):
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8))
        with Campaign(executor=ParallelExecutor(jobs=2)) as campaign:
            results = campaign.run(tasks)
        assert [r.scenario.bucket_size for r in results] == [3, 5, 8]

    @pytest.mark.parametrize(
        "start_method",
        [
            method
            for method in ("spawn", "fork")
            if method in multiprocessing.get_all_start_methods()
        ],
    )
    def test_persistent_pool_start_method_is_identity_free(self, start_method):
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8))
        reference = [trajectory_digest(r) for r in Campaign().run(tasks)]
        with Campaign(
            executor=ParallelExecutor(jobs=2, start_method=start_method),
        ) as campaign:
            results = campaign.run(tasks)
        assert [trajectory_digest(r) for r in results] == reference

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ParallelExecutor(jobs=2)]
    )
    def test_submit_settles_with_the_task_result(self, executor):
        tasks = tiny_tasks()
        session = executor.open_session()
        try:
            # One task per call, the same task twice: each future carries
            # its own task's result, whatever order they settle in.
            futures = [
                session.submit(execute_task, task) for task in tasks + tasks[:1]
            ]
            settled = [future.result() for future in futures]
        finally:
            session.close()
        reference = series_of(Campaign().run(tasks))
        assert series_of(settled) == reference + reference[:1]

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ParallelExecutor(jobs=2)]
    )
    def test_task_error_reaches_its_future_only(self, executor):
        good = tiny_tasks()[0]
        session = executor.open_session()
        try:
            failed = session.submit(execute_task, _poison_task())
            error = failed.exception()
            # The session survives a raising task: the next call runs.
            after = session.submit(execute_task, good).result()
        finally:
            session.close()
        assert isinstance(error, ValueError)
        assert "deterministically bad task" in str(error)
        assert series_of([after]) == series_of(Campaign().run([good]))

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ParallelExecutor(jobs=1)]
    )
    def test_each_submit_is_one_worker_call(self, executor):
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8))
        session = executor.open_session()
        try:
            before = session.map(_pid, [0])
            for task in tasks:
                session.submit(execute_task, task).result()
            after = session.map(_pid, [0])
        finally:
            session.close()
        # The one pinned process served every call, the serial session's
        # being the caller's own.
        assert after == before
        assert (before == [os.getpid()]) is isinstance(executor, SerialExecutor)

    def test_dead_worker_fails_queued_and_later_submits(self):
        from concurrent.futures.process import BrokenProcessPool

        before = {
            p.pid for p in multiprocessing.active_children() if p.is_alive()
        }
        session = ParallelExecutor(jobs=1).open_session()
        try:
            doomed = session.submit(execute_task, _exploding_task())
            queued = session.submit(execute_task, tiny_tasks()[0])
            assert isinstance(doomed.exception(), BrokenProcessPool)
            assert isinstance(queued.exception(), BrokenProcessPool)
            with pytest.raises(BrokenExecutor):
                session.submit(execute_task, tiny_tasks()[0])
        finally:
            session.close()
        live = {p.pid for p in multiprocessing.active_children() if p.is_alive()}
        assert live <= before


def _failing_shard(_item):
    raise RuntimeError("shard failed")


def _pid(_item):
    return os.getpid()


def _fail_first(item):
    if item == 0:
        raise RuntimeError("shard failed")
    time.sleep(0.05)
    return item


def _cancel_counts(caplog):
    return [
        int(re.search(r"cancelling (\d+) queued", record.getMessage()).group(1))
        for record in caplog.records
        if "cancelling" in record.getMessage()
    ]


class TestSessionLifecycle:
    """A failing shard must not leak the pinned pool."""

    @staticmethod
    def _live_children():
        return {p.pid for p in multiprocessing.active_children() if p.is_alive()}

    def test_failing_shard_leaves_no_live_workers(self):
        before = self._live_children()
        original_pythonpath = os.environ.get("PYTHONPATH")
        session = ParallelExecutor(jobs=2).open_session()
        try:
            with pytest.raises(RuntimeError, match="shard failed"):
                session.map(_failing_shard, [1, 2, 3, 4])
        finally:
            session.close()
        assert self._live_children() <= before
        assert os.environ.get("PYTHONPATH") == original_pythonpath

    def test_a_failed_call_with_nothing_queued_logs_no_cancel(self, caplog):
        # The one call already settled when it failed: nothing is left to
        # cancel, so nothing is logged.
        session = ParallelExecutor(jobs=2).open_session()
        try:
            with caplog.at_level(logging.WARNING, "repro.runtime.executor"):
                with pytest.raises(RuntimeError, match="shard failed"):
                    session.map(_failing_shard, [1])
        finally:
            session.close()
        assert _cancel_counts(caplog) == []

    def test_the_cancel_log_counts_only_calls_still_queued(self, caplog):
        # One worker: the first call fails while the rest wait behind it.
        # The calls already settled, or handed to the worker, cannot be
        # cancelled and are not counted.
        calls = list(range(40))
        session = ParallelExecutor(jobs=1).open_session()
        try:
            with caplog.at_level(logging.WARNING, "repro.runtime.executor"):
                with pytest.raises(RuntimeError, match="shard failed"):
                    session.map(_fail_first, calls)
            # The pool survived the failed call and takes the next batch.
            assert session.map(_fail_first, [1]) == [1]
        finally:
            session.close()
        [cancelled] = _cancel_counts(caplog)
        assert 0 < cancelled < len(calls) - 1

    def test_close_is_idempotent(self):
        session = ParallelExecutor(jobs=2).open_session()
        assert session.map(str, [1]) == ["1"]
        session.close()
        session.close()

    def test_failing_shard_through_analyzer_leaves_no_live_workers(self):
        # The analyzer owns the --flow-jobs pool its engines borrow: a
        # shard that fails in a worker reaches the caller, and closing
        # the analyzer still shuts every worker down.
        from repro.core.analyzer import ConnectivityAnalyzer
        from repro.graph.generators import circulant_graph

        class _FailingShards(ConnectivityAnalyzer):
            def _make_engine(self, graph):
                engine = super()._make_engine(graph)
                engine.algorithm = "does-not-exist"  # workers fail resolving it
                return engine

        before = self._live_children()
        analyzer = _FailingShards(flow_jobs=2)
        with pytest.raises(ValueError, match="does-not-exist"):
            with analyzer:
                analyzer.analyze_graph(circulant_graph(8, [1, 2]))
        assert analyzer._flow_session is None
        assert self._live_children() <= before


class TestCampaign:
    def test_progress_events(self, tmp_path):
        events = []
        campaign = Campaign(
            cache=ResultCache(tmp_path / "cache"), progress=events.append
        )
        tasks = tiny_tasks()
        campaign.run(tasks)
        assert len(events) == len(tasks)
        assert all(event.status == "completed" for event in events)
        assert events[-1].completed == len(tasks)
        assert events[-1].cache_hits == 0
        assert "run" in events[0].describe()

        # Second run: everything is a cache hit, nothing executes.
        events.clear()
        campaign.run(tasks)
        assert [event.status for event in events] == ["hit"] * len(tasks)
        assert events[-1].cache_hits == len(tasks)

    def test_fully_cached_run_opens_no_session(self, tmp_path):
        from repro import obs

        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks()
        Campaign(cache=cache).run(tasks)
        obs.disable()
        registry = obs.enable()
        try:
            with Campaign(
                executor=ParallelExecutor(jobs=2), cache=cache
            ) as campaign:
                campaign.run(tasks)
                assert campaign._task_session is None
        finally:
            obs.disable()
        assert registry.counter("campaign.cache_hits") == len(tasks)
        assert registry.counter("campaign.sessions_opened") == 0

    def test_run_records_only_local_cache_gauges(self, tmp_path):
        from repro import obs

        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks()
        obs.disable()
        registry = obs.enable()
        try:
            Campaign(cache=cache).run(tasks)
            Campaign(cache=cache).run(tasks)
        finally:
            obs.disable()
        gauges = registry.snapshot()["gauges"]
        cache_gauges = {name for name in gauges if name.startswith("cache.")}
        assert cache_gauges == {
            "cache.hits", "cache.misses", "cache.stores", "cache.evictions",
            "cache.bytes_served", "cache.hit_rate",
        }
        assert registry.gauge("cache.hits") == len(tasks)

    def test_partial_cache_mixes_hits_and_runs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8))
        Campaign(cache=cache).run(tasks[:2])
        results = Campaign(cache=cache).run(tasks)
        assert [r.scenario.bucket_size for r in results] == [3, 5, 8]
        fresh = Campaign().run(tasks)
        assert series_of(results) == series_of(fresh)

    def test_campaign_leaves_no_costs_sidecar(self, tmp_path):
        # The cache directory holds entries and the cache's own metadata,
        # nothing a campaign writes beside them.
        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks(bucket_sizes=(3, 5))
        Campaign(cache=cache).run(tasks)
        assert not (cache.directory / "_costs.json").exists()
        assert {
            path.name for path in cache.directory.iterdir()
            if path.name.startswith("_")
        } <= {"_meta.json", "_meta.lock"}

    def test_stale_costs_sidecar_is_ignored(self, tmp_path):
        # A sidecar left by an older version is neither read nor
        # rewritten, and changes no result.
        cache = ResultCache(tmp_path / "cache")
        sidecar = cache.directory / "_costs.json"
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        stale = '{"entries": {"tiny:A": [30.0, 4]}}'
        sidecar.write_text(stale, encoding="utf-8")
        tasks = tiny_tasks(bucket_sizes=(3, 5))
        results = Campaign(cache=cache).run(tasks)
        assert series_of(results) == series_of(Campaign().run(tasks))
        assert sidecar.read_text(encoding="utf-8") == stale

    @pytest.mark.parametrize("expensive_first", [True, False])
    def test_expensive_task_never_reorders_dispatch(self, expensive_first):
        # Whichever way round the expensive task lies, tasks run in
        # submission order.
        expensive = ExperimentTask.create(
            scenario=get_scenario("K"), profile="tiny", seed=11
        )
        cheap = tiny_tasks(bucket_sizes=(3,))[0]
        tasks = [expensive, cheap] if expensive_first else [cheap, expensive]
        events = []
        Campaign(progress=events.append).run(tasks)
        assert [event.index for event in events] == [0, 1]


class TestProgressAccounting:
    """Campaign._emit bookkeeping under mixed batches and failing callbacks."""

    def test_mixed_hit_miss_batch_counts_stay_consistent(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8, 10))
        Campaign(cache=cache).run(tasks[:2])  # warm two of four entries

        events = []
        results = Campaign(cache=cache, progress=events.append).run(tasks)
        assert len(events) == len(tasks)
        # completed increments by exactly one per event and every event
        # carries the result of the task it reports.
        assert [event.completed for event in events] == [1, 2, 3, 4]
        assert all(event.total == len(tasks) for event in events)
        for event in events:
            assert event.result is results[event.index]
        # Hits are reported first (pre-scan order) and the hit counter
        # matches the number of hit events seen so far, then freezes.
        assert [event.status for event in events] == [
            "hit", "hit", "completed", "completed",
        ]
        assert [event.cache_hits for event in events] == [1, 2, 2, 2]
        # Every task is reported exactly once.
        assert sorted(event.index for event in events) == [0, 1, 2, 3]

    def test_raising_callback_does_not_half_report_the_batch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8))
        seen = []

        def explode_on_second(event):
            seen.append(event)
            if len(seen) == 2:
                raise RuntimeError("observer failed")

        campaign = Campaign(cache=cache, progress=explode_on_second)
        with pytest.raises(RuntimeError, match="observer failed"):
            campaign.run(tasks)

        # The batch aborted cleanly after the failing event: the two
        # reported tasks were completed, cached *before* their events
        # fired, and reported exactly once; the third never ran.
        assert [event.completed for event in seen] == [1, 2]
        assert [event.index for event in seen] == [0, 1]
        assert has_entry(cache, tasks[0]) and has_entry(cache, tasks[1])
        assert not has_entry(cache, tasks[2])

        # A re-run resumes from the cache without re-reporting the
        # finished work as fresh completions.
        events = []
        results = Campaign(cache=cache, progress=events.append).run(tasks)
        assert [event.status for event in events] == [
            "hit", "hit", "completed",
        ]
        assert [event.completed for event in events] == [1, 2, 3]
        assert series_of(results) == series_of(Campaign().run(tasks))

    def test_raising_callback_on_cache_hit_loses_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks(bucket_sizes=(3, 5))
        Campaign(cache=cache).run(tasks)

        def explode(event):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError):
            Campaign(cache=cache, progress=explode).run(tasks)
        # The entries the pre-scan already verified are still cached.
        assert has_entry(cache, tasks[0]) and has_entry(cache, tasks[1])


class _ExplodingTask(ExperimentTask):
    """A task whose run kills its worker process outright (no exception)."""

    def run(self):
        os._exit(3)


def _exploding_task():
    return _ExplodingTask.create(
        scenario=get_scenario("E"), profile="tiny", seed=99
    )


class TestParallelCampaign:
    """One persistent pool per campaign; every task is its own flight."""

    def test_parallel_progress_reports_every_task_with_result(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8))
        events = []
        with Campaign(
            executor=ParallelExecutor(jobs=2),
            cache=cache,
            progress=events.append,
        ) as campaign:
            results = campaign.run(tasks)
        assert sorted(event.index for event in events) == [0, 1, 2]
        assert [event.completed for event in events] == [1, 2, 3]
        for event in events:
            assert event.status == "completed"
            assert event.result is results[event.index]
        # Mixed hit/run re-run: hits stream first, then the fresh task.
        cache_for_rerun = ResultCache(tmp_path / "cache")
        more = tiny_tasks(bucket_sizes=(3, 5, 8, 10))
        events.clear()
        with Campaign(
            executor=ParallelExecutor(jobs=2),
            cache=cache_for_rerun,
            progress=events.append,
        ) as campaign:
            rerun = campaign.run(more)
        assert [event.status for event in events] == [
            "hit", "hit", "hit", "completed",
        ]
        assert series_of(rerun[:3]) == series_of(results)

    def test_session_persists_across_runs(self):
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8, 10))
        with Campaign(executor=ParallelExecutor(jobs=1)) as campaign:
            campaign.run(tasks[:2])
            session = campaign._task_session
            assert session is not None
            first = session.map(_pid, [0])
            campaign.run(tasks[2:])
            assert campaign._task_session is session  # same pinned pool
            second = session.map(_pid, [0])
        # Same worker process served both runs: the pool (with its
        # imports) really persisted.
        assert second == first
        assert first != [os.getpid()]


class TestPoolLifecycle:
    """A worker dying mid-run must not lose finished work or leak pools."""

    @staticmethod
    def _live_children():
        return {p.pid for p in multiprocessing.active_children() if p.is_alive()}

    def test_dead_worker_fails_run_but_keeps_completed_tasks_cached(
        self, tmp_path
    ):
        from concurrent.futures.process import BrokenProcessPool

        cache = ResultCache(tmp_path / "cache")
        good = tiny_tasks(bucket_sizes=(3, 5, 8))
        tasks = good[:2] + [_exploding_task(), good[2]]
        before = self._live_children()
        events = []
        campaign = Campaign(
            executor=ParallelExecutor(jobs=1),
            cache=cache,
            progress=events.append,
            # Fail-fast: a task that kills its own process must propagate,
            # not be healed into in-process (driver-killing) re-execution.
            retry_policy=FAIL_FAST,
        )
        # One-task flights in submission order: the single worker
        # finishes good0 and good1 before the exploding task kills it,
        # and good2, queued behind it, fails with the pool.
        with pytest.raises(BrokenProcessPool):
            campaign.run(tasks)
        # The completed tasks streamed and were cached before the death...
        assert [event.index for event in events] == [0, 1]
        assert has_entry(cache, good[0]) and has_entry(cache, good[1])
        # ... the tasks on the dead pool were not reported or cached ...
        assert not has_entry(cache, tasks[2])
        assert not has_entry(cache, good[2])
        # ... and the broken session was unwound, leaking no processes.
        assert campaign._task_session is None
        assert self._live_children() <= before

        # A later run on the same campaign opens a fresh pool and resumes
        # from the cache: only the never-finished task executes.
        results = campaign.run(good)
        campaign.close()
        assert [event.status for event in events[2:]] == [
            "hit", "hit", "completed",
        ]
        assert series_of(results) == series_of(Campaign().run(good))
        assert self._live_children() <= before

    def test_failing_callback_unwinds_session(self, tmp_path):
        before = self._live_children()
        tasks = tiny_tasks(bucket_sizes=(3, 5))

        def explode(_event):
            raise RuntimeError("observer failed")

        campaign = Campaign(
            executor=ParallelExecutor(jobs=2), progress=explode
        )
        with pytest.raises(RuntimeError, match="observer failed"):
            campaign.run(tasks)
        assert campaign._task_session is None
        assert self._live_children() <= before

    def test_overlapping_sessions_restore_pythonpath_last_close(self):
        # Persistent sessions can overlap in one process (two open
        # campaigns); the PYTHONPATH export is reference-counted, so
        # closing the first must NOT strip the path from under the still-
        # open second, and closing the last restores the true original.
        original = os.environ.get("PYTHONPATH")
        first = ParallelExecutor(jobs=1).open_session()
        second = ParallelExecutor(jobs=1).open_session()
        exported = os.environ.get("PYTHONPATH")
        assert exported is not None
        first.close()
        # Still exported for the second session (its workers spawn lazily
        # and must find the package on first submit).
        assert os.environ.get("PYTHONPATH") == exported
        assert second.map(str, [7]) == ["7"]
        second.close()
        assert os.environ.get("PYTHONPATH") == original


class _PoisonTask(ExperimentTask):
    """A task that always raises a deterministic (non-retryable) error."""

    def run(self):
        raise ValueError("deterministically bad task")


def _poison_task():
    return _PoisonTask.create(
        scenario=get_scenario("E"), profile="tiny", seed=98
    )


def _wrapped_connection_error():
    """A framework error raised ``from`` a dropped connection."""
    error = RuntimeError("transport framework error")
    error.__cause__ = ConnectionError("link dropped")
    return error


class TestSelfHealingCampaign:
    """The one dispatch path heals poison, flaky and broken-pool failures."""

    @pytest.mark.parametrize("poison_at", [0, 2, 3])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_task_is_isolated_not_fatal(self, tmp_path, jobs, poison_at):
        cache = ResultCache(tmp_path / "cache")
        good = tiny_tasks(bucket_sizes=(3, 5, 8))
        tasks = good[:poison_at] + [_poison_task()] + good[poison_at:]
        healthy = [index for index in range(len(tasks)) if index != poison_at]
        events = []
        with Campaign(
            executor=make_executor(jobs), cache=cache, progress=events.append
        ) as campaign:
            with pytest.raises(CampaignTaskFailure) as exc_info:
                campaign.run(tasks)
        failure = exc_info.value
        # Exactly the poison task is reported, with a structured record.
        assert [record.index for record in failure.failures] == [poison_at]
        record = failure.failures[0]
        assert record.error_type == "ValueError"
        assert record.attempts == 1  # non-retryable: no budget burned
        assert not record.retryable
        assert record.key == tasks[poison_at].key()
        # Every healthy task completed, was cached and carried results.
        for index, task in enumerate(tasks):
            if index == poison_at:
                assert failure.results[index] is None
                assert not has_entry(cache, task)
            else:
                assert failure.results[index] is not None
                assert has_entry(cache, task)
        statuses = {event.index: event.status for event in events}
        assert statuses[poison_at] == "failed"
        assert all(statuses[index] == "completed" for index in healthy)

    @pytest.mark.parametrize(
        "transient",
        [
            lambda: TimeoutError("transient"),
            lambda: ConnectionResetError("peer went away"),
            lambda: BrokenExecutor("a worker died"),
            _wrapped_connection_error,
        ],
        ids=["timeout", "connection-reset", "broken-pool", "wrapped-cause"],
    )
    def test_retryable_failures_heal_transparently(self, tmp_path, transient):
        # An error classed retryable that stops recurring: the campaign
        # retries and the run succeeds with no exception at all.
        attempts = {"count": 0}

        class _FlakySession:
            def submit(self, fn, task):
                from concurrent.futures import Future

                future = Future()
                future.set_running_or_notify_cancel()
                attempts["count"] += 1
                if attempts["count"] == 1:
                    future.set_exception(transient())
                else:
                    future.set_result(task.run())
                return future

            def close(self):
                pass

        tasks = tiny_tasks(bucket_sizes=(3,))
        campaign = Campaign(retry_policy=RetryPolicy())
        campaign._task_session = _FlakySession()
        results = campaign.run(tasks)
        campaign._task_session = None  # the stub is not a real session
        assert len(results) == 1 and results[0] is not None
        assert attempts["count"] == 2  # failed once, healed on retry

    @pytest.mark.parametrize("max_respawns", [0, 1, 2])
    def test_respawn_ladder_degrades_to_serial(self, tmp_path, max_respawns):
        # A pool that breaks on every submit: the campaign respawns up to
        # the budget, then degrades to in-process serial execution and
        # still completes the run.
        opened = {"count": 0}

        class _BrokenSession:
            def submit(self, fn, task):
                raise BrokenExecutor("pool is broken")

            def close(self):
                pass

        class _BrokenExecutorBackend(SerialExecutor):
            def open_session(self):
                opened["count"] += 1
                return _BrokenSession()

        tasks = tiny_tasks(bucket_sizes=(3, 5))
        policy = RetryPolicy(max_respawns=max_respawns)
        with Campaign(
            executor=_BrokenExecutorBackend(), retry_policy=policy,
        ) as campaign:
            results = campaign.run(tasks)
        assert all(result is not None for result in results)
        # First open + every respawn, then the serial fallback finished it.
        assert opened["count"] == 1 + max_respawns
        # The degraded session was dropped so a later run starts fresh.
        assert campaign._task_session is None


class TestRewiredSweeps:
    def test_sweep_identical_across_jobs_and_cache(self, tmp_path):
        base = get_scenario("A")
        kwargs = dict(bucket_sizes=(3, 5), profile="tiny", seed=13)
        serial = run_bucket_size_sweep(base, **kwargs)
        cache = ResultCache(tmp_path / "cache")
        two_jobs = ExecutionOptions(jobs=2)
        parallel = run_bucket_size_sweep(
            base, execution=two_jobs, cache=cache, **kwargs
        )
        assert series_of(serial.values()) == series_of(parallel.values())
        assert cache.stats.misses == 2

        # Re-running the same sweep is served entirely from the cache.
        cached = run_bucket_size_sweep(
            base, execution=two_jobs, cache=cache, **kwargs
        )
        assert series_of(cached.values()) == series_of(serial.values())
        assert cache.stats.hits == 2

    def test_replication_through_runtime(self, tmp_path):
        scenario = get_scenario("E").with_overrides(bucket_size=5)
        cache = ResultCache(tmp_path / "cache")
        direct = replicate_scenario(scenario, seeds=(1, 2), profile="tiny")
        routed = replicate_scenario(
            scenario, seeds=(1, 2), profile="tiny",
            execution=ExecutionOptions(jobs=2), cache=cache,
        )
        for name in direct.statistics:
            assert routed.statistic(name).values == direct.statistic(name).values
        rerun = replicate_scenario(
            scenario, seeds=(1, 2), profile="tiny", cache=cache
        )
        assert cache.stats.hits == 2
        for name in direct.statistics:
            assert rerun.statistic(name).values == direct.statistic(name).values
