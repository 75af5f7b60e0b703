"""Tests of the resilience layer.

* :class:`RetryPolicy` — two budgets (attempts, respawns), validation,
  the fail-fast sentinel and the environment override;
* poison isolation (hypothesis-driven) — for *any* poison position, the
  campaign driver fails exactly the poison task in its own one-task
  flight (everything else completes and is recorded exactly once).
"""

import logging
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.runtime.campaign import Campaign
from repro.runtime.executor import ParallelExecutor
from repro.runtime.resilience import (
    FAIL_FAST,
    RETRIES_ENV_VAR,
    RetryPolicy,
    ShutdownGuard,
    TaskFailureRecord,
    default_retry_policy,
    is_retryable,
)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_respawns=-1)

    def test_fail_fast_sentinel(self):
        assert FAIL_FAST.fail_fast
        assert not RetryPolicy().fail_fast

    def test_no_retries_and_no_respawns_is_fail_fast(self):
        # Retries and respawns are the only healing knobs: switching both
        # off leaves nothing that could heal a failed flight.
        policy = RetryPolicy(max_attempts=1, max_respawns=0)
        assert policy == FAIL_FAST
        assert policy.fail_fast
        assert [field.name for field in fields(RetryPolicy)] == [
            "max_attempts", "max_respawns",
        ]

    @pytest.mark.parametrize(
        "max_attempts, max_respawns", [(2, 0), (1, 1), (3, 2)]
    )
    def test_either_healing_knob_keeps_a_policy_healing(
        self, max_attempts, max_respawns
    ):
        policy = RetryPolicy(max_attempts=max_attempts, max_respawns=max_respawns)
        assert not policy.fail_fast
        assert policy != FAIL_FAST

    def test_default_policy_env_override(self, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV_VAR, raising=False)
        assert default_retry_policy() == RetryPolicy()
        monkeypatch.setenv(RETRIES_ENV_VAR, "12")
        assert default_retry_policy().max_attempts == 12
        assert Campaign().retry_policy.max_attempts == 12
        for bogus in ("many", "0"):
            monkeypatch.setenv(RETRIES_ENV_VAR, bogus)
            with pytest.raises(ValueError):
                default_retry_policy()


class TestRetryClassification:
    def test_infrastructure_errors_are_retryable(self):
        assert is_retryable(BrokenExecutor("pool broke"))
        assert is_retryable(OSError("disk"))
        assert is_retryable(TimeoutError("slow"))

    def test_marked_errors_are_retryable(self):
        error = RuntimeError("injected")
        error.retryable = True
        assert is_retryable(error)

    def test_plain_task_errors_are_not(self):
        assert not is_retryable(ValueError("bad input"))
        assert not is_retryable(RuntimeError("task bug"))

    def test_wrapped_transport_errors_stay_retryable(self):
        # A ConnectionError wrapped in a framework's own dispatch error
        # must still be healed, not reported as poison.
        try:
            try:
                raise ConnectionResetError("link lost")
            except ConnectionResetError as inner:
                raise RuntimeError("dispatch failed") from inner
        except RuntimeError as outer:
            explicit_cause = outer
        assert is_retryable(explicit_cause)

        try:
            try:
                raise TimeoutError("slow")
            except TimeoutError:
                raise RuntimeError("cleanup failed")  # implicit __context__
        except RuntimeError as outer:
            implicit_context = outer
        assert is_retryable(implicit_context)

    def test_non_retryable_chains_stay_non_retryable(self):
        try:
            try:
                raise ValueError("bad input")
            except ValueError as inner:
                raise KeyError("missing") from inner
        except KeyError as outer:
            error = outer
        assert not is_retryable(error)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_cyclic_chains_terminate_and_classify(self, data):
        """For any chain geometry — including cycles, which hand-built
        exception graphs can form — the walk terminates and returns
        whether any reachable link is retryable."""
        length = data.draw(st.integers(min_value=1, max_value=8))
        retryable_at = data.draw(
            st.one_of(st.none(), st.integers(0, length - 1))
        )
        links = data.draw(
            st.lists(
                st.sampled_from(["cause", "context"]),
                min_size=length, max_size=length,
            )
        )
        errors = [
            OSError(f"node {i}")
            if retryable_at is not None and i == retryable_at
            else RuntimeError(f"node {i}")
            for i in range(length)
        ]
        for i in range(length - 1):
            setattr(errors[i], f"__{links[i]}__", errors[i + 1])
        # Close a cycle from the tail back into the chain.
        cycle_target = data.draw(st.integers(0, length - 1))
        setattr(errors[-1], f"__{links[-1]}__", errors[cycle_target])
        assert is_retryable(errors[0]) == (retryable_at is not None)

    def test_failure_record_round_trip(self):
        record = TaskFailureRecord.from_error(
            3, "abc123", "scenario E", 2, TimeoutError("too slow")
        )
        assert record.to_dict() == {
            "index": 3,
            "key": "abc123",
            "label": "scenario E",
            "attempts": 2,
            "error_type": "TimeoutError",
            "error_message": "too slow",
            "retryable": True,
        }


# ----------------------------------------------------------------------
# Poison isolation
# ----------------------------------------------------------------------
class _StubTask:
    """Minimal stand-in for ExperimentTask inside the dispatch driver."""

    def __init__(self, index):
        self.index = index

    def key(self):
        return f"stub-{self.index}"

    def label(self):
        return f"stub task {self.index}"


class _ScriptedSession:
    """A task session whose flights fail whenever they carry the poison."""

    def __init__(self, poison, error_factory):
        self.poison = poison
        self.error_factory = error_factory
        self.dispatched = []

    def submit(self, fn, task):
        self.dispatched.append(task.index)
        future = Future()
        future.set_running_or_notify_cancel()
        if task.index == self.poison:
            future.set_exception(self.error_factory())
        else:
            future.set_result(f"result-{task.index}")
        return future

    def close(self):
        pass


def _drive(tasks_count, poison, error_factory, policy):
    tasks = [_StubTask(i) for i in range(tasks_count)]
    campaign = Campaign(retry_policy=policy)
    session = _ScriptedSession(poison, error_factory)
    campaign._task_session = session
    recorded, failed = {}, []
    failures = campaign._dispatch(
        tasks,
        list(range(tasks_count)),
        lambda index, result: recorded.__setitem__(index, result),
        failed.append,
    )
    return recorded, failed, failures, session


class TestPoisonIsolation:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exactly_the_poison_task_fails(self, data):
        count = data.draw(st.integers(min_value=1, max_value=12))
        poison = data.draw(st.integers(min_value=0, max_value=count - 1))
        recorded, failed, failures, session = _drive(
            count, poison,
            lambda: RuntimeError("poison"),  # non-retryable: one attempt
            RetryPolicy(),
        )
        # One task per flight, in submission order, nothing re-run.
        assert session.dispatched == list(range(count))
        assert [record.index for record in failures] == [poison]
        assert failed == [poison]
        assert set(recorded) == set(range(count)) - {poison}
        assert failures[0].attempts == 1
        assert failures[0].error_type == "RuntimeError"
        assert not failures[0].retryable

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_retryable_poison_exhausts_the_attempt_budget(self, data):
        count = data.draw(st.integers(min_value=1, max_value=8))
        poison = data.draw(st.integers(min_value=0, max_value=count - 1))
        max_attempts = data.draw(st.integers(min_value=1, max_value=4))
        recorded, failed, failures, session = _drive(
            count, poison,
            lambda: TimeoutError("still poisoned"),
            RetryPolicy(max_attempts=max_attempts),
        )
        assert [record.index for record in failures] == [poison]
        assert failures[0].attempts == max_attempts
        assert set(recorded) == set(range(count)) - {poison}
        # Every dispatch of the poison task is one attempt; every healthy
        # task is dispatched once.
        assert session.dispatched.count(poison) == max_attempts
        assert len(session.dispatched) == count - 1 + max_attempts

    def test_healthy_run_returns_no_failures(self):
        recorded, failed, failures, _ = _drive(
            6, poison=-1,
            error_factory=lambda: AssertionError("never raised"),
            policy=RetryPolicy(),
        )
        assert failures == [] and failed == []
        assert set(recorded) == set(range(6))


class _PoolBreakSession:
    """Holds its first four flights, then fails them all at once — what a
    dying worker does to everything a 2-worker pool had been handed.
    Later flights settle a moment after they are submitted, and each
    submit records how many of them were still out."""

    def __init__(self):
        self.dispatched = []
        self.out_at_submit = []
        self.held = []
        self.later = []
        self.broke = False

    def submit(self, fn, task):
        self.dispatched.append(task.index)
        future = Future()
        future.set_running_or_notify_cancel()
        if self.broke:
            self.out_at_submit.append(sum(not f.done() for f in self.later))
            self.later.append(future)
            timer = threading.Timer(0.05, future.set_result, [f"result-{task.index}"])
            timer.start()
            return future
        self.held.append(future)
        if len(self.held) == 4:
            self.broke = True
            for held in self.held:
                held.set_exception(BrokenExecutor("a worker died"))
        return future

    def close(self):
        pass


class _CrashingPool:
    """A 2-worker pool on threads: running the poison task kills the pool.

    Like a process pool whose worker died, every flight not yet settled
    fails with :class:`BrokenExecutor` — the one on the other worker
    included — and every later submit raises it.
    """

    def __init__(self, poison, dispatched):
        self.poison = poison
        self.dispatched = dispatched
        self.broken = False
        self.futures = []
        self.lock = threading.Lock()
        self.threads = ThreadPoolExecutor(max_workers=2)

    def submit(self, fn, task):
        if self.broken:
            raise BrokenExecutor("the pool is broken")
        self.dispatched.append(task.index)
        future = Future()
        future.set_running_or_notify_cancel()
        self.futures.append(future)
        self.threads.submit(self._run, task.index, future)
        return future

    def _run(self, index, future):
        time.sleep(0.01)
        with self.lock:
            if future.done():
                return
            if index != self.poison:
                future.set_result(f"result-{index}")
                return
            self.broken = True
            for pending in self.futures:
                if not pending.done():
                    pending.set_exception(BrokenExecutor("a worker died"))

    def close(self):
        self.threads.shutdown(wait=True)


class _CrashingExecutor:
    worker_count = 2

    def __init__(self, poison):
        self.poison = poison
        self.dispatched = []
        self.pools = 0

    def open_session(self):
        self.pools += 1
        return _CrashingPool(self.poison, self.dispatched)


def _dispatch_stubs(campaign, session, count):
    campaign._task_session = session
    recorded, failed = {}, []
    try:
        failures = campaign._dispatch(
            [_StubTask(i) for i in range(count)],
            list(range(count)),
            lambda index, result: recorded.__setitem__(index, result),
            failed.append,
        )
    finally:
        campaign.close()
    return recorded, failed, failures


class TestPoolBreakAttribution:
    def test_a_break_with_two_flights_on_workers_charges_neither(self):
        obs.disable()
        registry = obs.enable()
        try:
            campaign = Campaign(
                executor=ParallelExecutor(jobs=2),
                retry_policy=RetryPolicy(),
            )
        finally:
            obs.disable()
        session = _PoolBreakSession()
        recorded, _, failures = _dispatch_stubs(campaign, session, 6)
        assert failures == [] and set(recorded) == set(range(6))
        # Flights 0 and 1 were on the two workers, 2 and 3 queued: the
        # pool cannot say which of 0 and 1 killed it, so nobody is charged.
        assert registry.counter("campaign.retries") == 0
        # Everything returns to the front of the queue, oldest first.
        assert session.dispatched == [0, 1, 2, 3, 0, 1, 2, 3, 4, 5]
        # The two suspects each run alone; then the window opens again.
        assert session.out_at_submit[:2] == [0, 0]
        assert max(session.out_at_submit[2:]) > 0

    @pytest.mark.parametrize("poison", range(6))
    def test_only_the_task_that_kills_the_pool_is_charged(self, poison):
        obs.disable()
        registry = obs.enable()
        executor = _CrashingExecutor(poison)
        try:
            campaign = Campaign(
                executor=executor,
                retry_policy=RetryPolicy(max_attempts=3, max_respawns=20),
            )
        finally:
            obs.disable()
        recorded, failed, failures = _dispatch_stubs(
            campaign, executor.open_session(), 6
        )
        assert failed == [poison]
        assert [record.index for record in failures] == [poison]
        assert failures[0].attempts == 3
        assert set(recorded) == set(range(6)) - {poison}
        # Two retries, both the poison's: no innocent flight was charged.
        assert registry.counter("campaign.retries") == 2


# ----------------------------------------------------------------------
# Slow flights
# ----------------------------------------------------------------------
class _TimedSession:
    """Two worker threads; every stub task sleeps for its own duration."""

    def __init__(self, durations):
        self.durations = durations
        self.dispatched = []
        self._pool = ThreadPoolExecutor(max_workers=2)

    def _run(self, index):
        time.sleep(self.durations[index])
        return f"result-{index}"

    def submit(self, fn, task):
        self.dispatched.append(task.index)
        return self._pool.submit(self._run, task.index)

    def close(self):
        self._pool.shutdown(wait=True)


class TestSlowFlightsAreWaitedFor:
    @pytest.mark.parametrize("slow", [0, 1, 23])
    def test_a_slow_flight_is_never_dispatched_twice(self, slow):
        # One flight runs 10x the others on two workers: the driver waits
        # for it, and every task goes out exactly once, in order, whether
        # the slow flight opens, interrupts or closes the queue.
        durations = [0.05] * 24
        durations[slow] = 0.5
        obs.disable()
        registry = obs.enable()
        try:
            campaign = Campaign(executor=ParallelExecutor(jobs=2))
        finally:
            obs.disable()
        session = _TimedSession(durations)
        campaign._task_session = session
        recorded = {}
        try:
            failures = campaign._dispatch(
                [_StubTask(i) for i in range(len(durations))],
                list(range(len(durations))),
                lambda index, result: recorded.__setitem__(index, result),
                lambda index: None,
            )
        finally:
            campaign._task_session = None
            session.close()
        assert failures == []
        assert recorded == {i: f"result-{i}" for i in range(len(durations))}
        assert session.dispatched == list(range(len(durations)))
        assert "campaign.hedges" not in registry.snapshot()["counters"]


# ----------------------------------------------------------------------
# ShutdownGuard
# ----------------------------------------------------------------------
class TestShutdownGuard:
    def test_installs_and_restores_handlers(self):
        previous = signal.getsignal(signal.SIGINT)
        with ShutdownGuard() as guard:
            assert guard.installed
            assert guard.requested is None
            assert signal.getsignal(signal.SIGINT) is not previous
        assert signal.getsignal(signal.SIGINT) is previous

    def test_first_signal_sets_flag_second_sigint_raises(self):
        with ShutdownGuard() as guard:
            guard._handle(signal.SIGINT, None)
            assert guard.requested == "SIGINT"
            with pytest.raises(KeyboardInterrupt):
                guard._handle(signal.SIGINT, None)

    def test_inert_outside_the_main_thread(self):
        outcome = {}

        def body():
            with ShutdownGuard() as guard:
                outcome["installed"] = guard.installed
                outcome["requested"] = guard.requested

        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        assert outcome == {"installed": False, "requested": None}

    def test_off_main_thread_logs_the_degradation(self, caplog):
        # The no-op must be observable: embedding code driving campaigns
        # from worker threads should find the breadcrumb in DEBUG logs
        # instead of silently losing cooperative shutdown.
        with caplog.at_level(
            logging.DEBUG, logger="repro.runtime.resilience"
        ):
            worker = threading.Thread(target=lambda: ShutdownGuard().__enter__())
            worker.start()
            worker.join()
        assert any(
            "not on the main thread" in record.message
            for record in caplog.records
        )

    def test_campaign_driven_from_a_worker_thread_completes(self):
        # Regression: Campaign.run() wraps dispatch in a ShutdownGuard;
        # off the main thread that guard must degrade, not raise the way
        # signal.signal() would.
        outcome = {}

        def body():
            recorded, failed, failures, _ = _drive(
                4, poison=-1,
                error_factory=lambda: AssertionError("never raised"),
                policy=RetryPolicy(),
            )
            outcome["recorded"] = set(recorded)
            outcome["failures"] = failures

        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        assert outcome == {"recorded": {0, 1, 2, 3}, "failures": []}
