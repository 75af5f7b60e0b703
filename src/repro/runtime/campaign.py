"""Campaign driver — sweeps and replications as cached task batches.

A :class:`Campaign` binds an :class:`~repro.runtime.executor.Executor` to an
optional :class:`~repro.runtime.cache.ResultCache` and runs batches of
:class:`~repro.runtime.task.ExperimentTask`:

1. every task is first looked up in the cache — hits are reported
   immediately and skip all simulation work;
2. the remaining tasks are dispatched through the executor in submission
   order, and each result is written back to the cache the moment it
   completes;
3. a progress callback receives one :class:`TaskProgress` event per task,
   in completion order and *carrying the task's result*, so long
   campaigns can stream per-task figures incrementally instead of
   waiting for the whole batch.

Every pending task is dispatched through one **persistent session**
(:meth:`repro.runtime.executor.Executor.open_session`): one long-lived
worker pool survives across every ``run()`` call of the campaign, and
each task goes out as its own *flight*, one
``submit(execute_task, task)`` worker call.  Every flight is healed
by the same driver (immediate retry, respawn, graceful shutdown — see
:meth:`Campaign._dispatch`).

Dispatch is **order-only** by construction: tasks are independent (each
carries its own seed-derived random universe) and ``run`` returns results
in submission order regardless of completion order, so worker count
and healing can change when a figure appears but never a single bit of
it.

The module also provides the batch builders (:func:`sweep_tasks`,
:func:`replication_tasks`) used by ``repro.experiments.sweep`` and
``repro.experiments.replication``.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    wait,
)
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.experiments.profiles import ScaleProfile
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import Scenario
from repro.obs import tracing
from repro.options import ExecutionOptions, MeasurementSpec
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor, SerialExecutor
from repro.runtime.resilience import (
    CampaignInterrupted,
    CampaignTaskFailure,
    RetryPolicy,
    ShutdownGuard,
    TaskFailureRecord,
    default_retry_policy,
    is_retryable,
)
from repro.runtime.task import ExperimentTask, execute_task

logger = logging.getLogger("repro.runtime.campaign")

#: Progress event statuses.
CACHE_HIT = "hit"
COMPLETED = "completed"
FAILED = "failed"

#: Flights kept in flight per executor worker; the rest of the queue is
#: submitted as flights settle.  Two keeps one flight queued behind each
#: running one (no worker idles while the driver records a result), yet
#: a pool break fails only the flights actually handed to the pool, not
#: the whole queue.
FLIGHTS_PER_WORKER = 2


@dataclass(frozen=True)
class TaskProgress:
    """One per-task progress event of a campaign run.

    ``result`` is the task's :class:`ExperimentResult` (cached or fresh),
    so a progress callback can render the task's figure the moment it
    completes.

    ``metrics`` is a small live-observability dict (completed /
    cache_hits / tasks_total / elapsed_seconds / tasks_per_sec), attached
    only when :mod:`repro.obs` is enabled and ``None`` otherwise — like
    everything observability it never feeds back into results.
    """

    task: ExperimentTask
    index: int
    total: int
    status: str
    completed: int
    cache_hits: int
    result: Optional[ExperimentResult] = None
    metrics: Optional[dict] = None

    def describe(self) -> str:
        """One-line rendering used by the CLI's progress stream."""
        if self.status == FAILED:
            return (
                f"[{self.completed}/{self.total}] {self.task.label()} (failed)"
            )
        origin = "cache" if self.status == CACHE_HIT else "run"
        return (
            f"[{self.completed}/{self.total}] {self.task.label()} ({origin})"
        )


ProgressCallback = Callable[[TaskProgress], None]


class Campaign:
    """Dispatches task batches through an executor and a result cache.

    Parameters
    ----------
    executor:
        Where uncached tasks run; defaults to in-process
        :class:`~repro.runtime.executor.SerialExecutor`.  The campaign
        owns one persistent task session on it from the first dispatched
        task until :meth:`close` (or use the campaign as a context
        manager).
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`: hits skip
        all simulation work, fresh results are written back as they
        complete.
    progress:
        Optional callback receiving one :class:`TaskProgress` per task,
        in completion order.
    retry_policy:
        :class:`~repro.runtime.resilience.RetryPolicy` governing the
        campaign's self-healing: bounded per-task retry attempts (a
        retry is re-queued at once) and bounded session respawns (then
        degradation to in-process serial execution).  Defaults to
        ``RetryPolicy()``; pass :data:`~repro.runtime.resilience.FAIL_FAST`
        for first-error-propagates behaviour.  Identity-free: healing changes
        when and where a task runs, never a bit of its result.
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.executor = executor or SerialExecutor()
        self.cache = cache
        self.progress = progress
        self.retry_policy = (
            retry_policy if retry_policy is not None else default_retry_policy()
        )
        self._task_session = None
        self._guard: Optional[ShutdownGuard] = None
        # Captured once: ``None`` when observability is off, so every
        # per-task touch point below is a single attribute test.
        self._obs = obs.active()
        self._run_started = 0.0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the persistent task session, if one was opened.

        Idempotent; a later :meth:`run` transparently opens a fresh
        session.  A campaign that never dispatched a task (everything
        served from the cache) holds no session.
        """
        session, self._task_session = self._task_session, None
        if session is not None:
            session.close()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Safety net for call sites that never close: release the pool
        # and the exported PYTHONPATH when the campaign is collected
        # rather than never.  Deterministic call sites should still
        # close()/``with`` — GC timing is an upper bound, not a
        # lifecycle.
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[ExperimentTask]) -> List[ExperimentResult]:
        """Run ``tasks`` and return their results in submission order.

        A cooperative shutdown guard is installed for the duration of
        the run: the first SIGINT/SIGTERM stops dispatch,
        flushes completed results and stats, closes the session and
        raises :class:`~repro.runtime.resilience.CampaignInterrupted`
        (a re-run resumes warm from the cache); a second SIGINT
        interrupts immediately.  Tasks that fail permanently after the
        retry policy is exhausted raise
        :class:`~repro.runtime.resilience.CampaignTaskFailure` *after*
        every other task completed.
        """
        tasks = list(tasks)
        try:
            with tracing.span(
                "campaign.run", tasks=len(tasks)
            ), ShutdownGuard() as guard:
                self._guard = guard
                try:
                    return self._run(tasks)
                finally:
                    self._guard = None
        finally:
            # Fold this run's lookup counters into the cache directory's
            # persistent stats (one lock acquisition; no-op without
            # deltas or directory) even when a task raised mid-batch.
            if self.cache is not None:
                self.cache.sync_persistent_stats()

    def _shutdown_requested(self) -> Optional[str]:
        """Name of the pending shutdown signal, or ``None``."""
        guard = self._guard
        return guard.requested if guard is not None else None

    def _run(self, tasks: List[ExperimentTask]) -> List[ExperimentResult]:
        total = len(tasks)
        registry = self._obs
        self._run_started = perf_counter()
        fresh_wall = 0.0
        if registry is not None:
            registry.inc("campaign.tasks_submitted", total)
        results: List[Optional[ExperimentResult]] = [None] * total
        completed = 0
        cache_hits = 0

        pending_indices: List[int] = []
        for index, task in enumerate(tasks):
            cached = self.cache.get(task) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                completed += 1
                cache_hits += 1
                if registry is not None:
                    registry.inc("campaign.cache_hits")
                    registry.inc("campaign.tasks_completed")
                self._emit(
                    task, index, total, CACHE_HIT, completed, cache_hits, cached
                )
            else:
                pending_indices.append(index)

        if pending_indices:
            def _record(index: int, result: ExperimentResult) -> None:
                nonlocal completed, fresh_wall
                task = tasks[index]
                results[index] = result
                if self.cache is not None:
                    self.cache.put(task, result)
                completed += 1
                if registry is not None:
                    registry.inc("campaign.tasks_completed")
                    registry.observe(
                        "campaign.task_wall_seconds", result.wall_seconds
                    )
                    fresh_wall += result.wall_seconds
                    if result.obs_metrics is not None:
                        registry.merge(result.obs_metrics)
                self._emit(
                    task, index, total, COMPLETED, completed, cache_hits, result
                )

            def _record_failure(index: int) -> None:
                self._emit(
                    tasks[index], index, total, FAILED, completed, cache_hits,
                    None,
                )

            failure_records = self._dispatch(
                tasks, pending_indices, _record, _record_failure
            )
            if failure_records:
                # Every healthy task completed (and was cached) before
                # this raises: the poison tasks cost their own results,
                # never the rest of the campaign's.
                if registry is not None:
                    self._record_run_gauges(registry, fresh_wall)
                raise CampaignTaskFailure(failure_records, results)

        if registry is not None:
            self._record_run_gauges(registry, fresh_wall)
        return results  # type: ignore[return-value]

    def _record_run_gauges(self, registry, fresh_wall: float) -> None:
        """Record the end-of-run campaign/cache gauges.

        ``worker_utilisation`` is the fraction of the run's total worker
        capacity (wall-clock elapsed × worker count) spent inside fresh
        simulations — cache hits and dispatch overhead both lower it.
        """
        elapsed = perf_counter() - self._run_started
        workers = max(1, self.executor.worker_count)
        registry.set_gauge("campaign.workers", workers)
        registry.set_gauge("campaign.elapsed_seconds", elapsed)
        if elapsed > 0.0:
            registry.set_gauge(
                "campaign.worker_utilisation",
                min(1.0, fresh_wall / (elapsed * workers)),
            )
        if self.cache is not None:
            stats = self.cache.stats
            registry.set_gauge("cache.hits", stats.hits)
            registry.set_gauge("cache.misses", stats.misses)
            registry.set_gauge("cache.stores", stats.stores)
            registry.set_gauge("cache.evictions", stats.evictions)
            registry.set_gauge("cache.bytes_served", stats.bytes_served)
            registry.set_gauge("cache.hit_rate", stats.hit_rate)

    def run_one(self, task: ExperimentTask) -> ExperimentResult:
        """Run a single task (through cache and executor)."""
        return self.run([task])[0]

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        tasks: Sequence[ExperimentTask],
        pending: List[int],
        record: Callable[[int, ExperimentResult], None],
        record_failure: Callable[[int], None],
    ) -> List[TaskFailureRecord]:
        """Resilient dispatch through the persistent task session.

        Each pending task goes out, in submission order, as its own
        *flight*, at most :data:`FLIGHTS_PER_WORKER` per worker at a
        time; each failure is healed according to the retry policy
        instead of aborting the run:

        * a failed flight charges its task one attempt; retryable errors
          re-queue the task at once, everything else — or
          an exhausted budget — records a structured
          :class:`TaskFailureRecord` and the campaign moves on;
        * a pool break is charged only to a flight that must have caused
          it: the one flight that was on a worker.  When several were,
          the pool cannot say whose worker died, so none is charged;
          they become *suspects*, go back to the front of the queue, and
          run one flight at a time until each has completed or broken a
          pool on its own;
        * a submit onto a broken pool **respawns** the session up to
          ``max_respawns`` times, then degrades to in-process serial
          execution (safe for injected crash faults, which only ever
          fire in worker processes);
        * a slow flight is simply waited for: a duplicate would run the
          same deterministic task in the same pool, and a running future
          cannot be cancelled, so it could only add work;
        * a pending shutdown signal stops dispatch, drains what is
          already running (recording its results), closes the session
          and raises :class:`CampaignInterrupted`.

        Returns the failure records of permanently failed tasks (empty
        on a fully healthy run).  Unexpected errors — e.g. a raising
        progress callback — still close the session before propagating,
        so the next ``run()`` starts from a fresh pool.
        """
        policy = self.retry_policy
        registry = self._obs
        workers = max(1, self.executor.worker_count)
        window = FLIGHTS_PER_WORKER * workers
        if self._task_session is None:
            self._task_session = self.executor.open_session()
            if registry is not None:
                registry.inc("campaign.sessions_opened")
        if registry is not None:
            registry.inc("campaign.batches_dispatched", len(pending))

        recorded: Set[int] = set()
        failures: Dict[int, TaskFailureRecord] = {}
        attempts: Dict[int, int] = {}
        inflight: Dict[Future, int] = {}
        queue = deque(pending)
        requeued: List[int] = []
        # Flights a pool break failed, oldest first, with its error.
        broken: List[Tuple[int, BaseException]] = []
        suspects: Set[int] = set()
        respawns = 0
        degraded = False
        draining = False

        def respawn_session() -> None:
            nonlocal respawns, degraded
            self.close()
            if respawns < policy.max_respawns:
                respawns += 1
                logger.warning(
                    "worker pool broke; respawning task session (%d/%d)",
                    respawns,
                    policy.max_respawns,
                )
                if registry is not None:
                    registry.inc("campaign.respawns")
                self._task_session = self.executor.open_session()
            else:
                degraded = True
                logger.warning(
                    "worker pool broke again after %d respawn(s); degrading "
                    "to in-process serial execution for the remaining tasks",
                    respawns,
                )
                if registry is not None:
                    registry.inc("campaign.degraded_serial")
                self._task_session = SerialExecutor().open_session()

        def submit_flight(index: int) -> None:
            while True:
                try:
                    future = self._task_session.submit(execute_task, tasks[index])
                    break
                except BrokenExecutor:
                    if policy.fail_fast:
                        raise
                    respawn_session()
            inflight[future] = index

        def requeue(index: int, error: BaseException) -> None:
            suspects.discard(index)
            task = tasks[index]
            attempts[index] = attempts.get(index, 0) + 1
            if is_retryable(error) and attempts[index] < policy.max_attempts:
                if registry is not None:
                    registry.inc("campaign.retries")
                logger.warning(
                    "retrying task %s (attempt %d/%d) after: %s",
                    task.label(),
                    attempts[index] + 1,
                    policy.max_attempts,
                    error,
                )
                requeued.append(index)
            else:
                failures[index] = TaskFailureRecord.from_error(
                    index, task.key(), task.label(), attempts[index], error
                )
                if registry is not None:
                    registry.inc("campaign.tasks_failed")
                logger.error(
                    "task %s failed permanently after %d attempt(s): %s",
                    task.label(),
                    attempts[index],
                    error,
                )
                record_failure(index)

        def handle_done(future: Future) -> None:
            index = inflight.pop(future)
            try:
                result = future.result()
            except CancelledError:
                return
            except Exception as error:
                if draining:
                    return
                if policy.fail_fast:
                    # The first flight error propagates unhealed (the
                    # outer handler closes the session).
                    raise
                if isinstance(error, BrokenExecutor):
                    broken.append((index, error))
                else:
                    requeue(index, error)
                return
            suspects.discard(index)
            recorded.add(index)
            record(index, result)

        def charge_break() -> None:
            # A dying worker fails every dispatched flight at once with
            # the same error: the pool records no task per process, so
            # which worker died — and so whose flight killed it — is not
            # known.  Only a flight on a worker can have done it, and the
            # pool is FIFO, so those are the oldest ``workers`` broken
            # flights; the rest were merely queued.
            on_workers = [index for index, _ in broken[:workers]]
            if len(on_workers) == 1:
                requeue(*broken[0])
            else:
                logger.warning(
                    "worker pool broke with %d flights on workers; running "
                    "them one at a time to find the one that breaks it",
                    len(on_workers),
                )
                suspects.update(on_workers)
                requeued.extend(on_workers)
            requeued.extend(index for index, _ in broken[workers:])
            broken.clear()

        def settle_done() -> None:
            # In submission order: a pool break fails every dispatched
            # flight at once, and the tasks go back to the front of the
            # queue oldest first — suspects of a break are the first
            # onto the fresh pool, one at a time.
            for future in [f for f in inflight if f.done()]:
                handle_done(future)
            if broken:
                charge_break()
            queue.extendleft(reversed(requeued))
            requeued.clear()

        try:
            while queue or inflight:
                signal_name = self._shutdown_requested()
                if signal_name is not None:
                    draining = True
                    queue.clear()
                    for future in list(inflight):
                        future.cancel()
                    while inflight:
                        wait(list(inflight), return_when=FIRST_COMPLETED)
                        settle_done()
                    logger.warning(
                        "%s received: dispatch stopped, %d completed "
                        "result(s) flushed, closing session",
                        signal_name,
                        len(recorded),
                    )
                    self.close()
                    raise CampaignInterrupted(
                        signal_name, len(recorded), len(pending)
                    )
                while (
                    queue
                    and len(inflight) < (1 if suspects else window)
                    and self._shutdown_requested() is None
                ):
                    submit_flight(queue.popleft())
                    # Serial sessions settle futures synchronously:
                    # surface their results (cache writes, progress)
                    # before submitting the next flight instead of after
                    # the whole run.
                    settle_done()
                if not inflight:
                    continue
                timeout = None
                if self._guard is not None and self._guard.installed:
                    timeout = 0.25  # poll the shutdown flag
                wait(
                    list(inflight),
                    timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                settle_done()
        except BaseException:
            logger.warning(
                "closing persistent task session after a failed run; "
                "the next run() opens a fresh worker pool"
            )
            for future in list(inflight):
                future.cancel()
            self.close()
            raise
        if degraded:
            # The degraded serial session finished the run; drop it so
            # the next run() opens a real worker pool again.
            self.close()
        return [failures[index] for index in sorted(failures)]

    def _emit(
        self,
        task: ExperimentTask,
        index: int,
        total: int,
        status: str,
        completed: int,
        cache_hits: int,
        result: Optional[ExperimentResult],
    ) -> None:
        tracing.point("task", status=status, label=task.label())
        if self.progress is not None:
            metrics = None
            if self._obs is not None:
                elapsed = perf_counter() - self._run_started
                metrics = {
                    "completed": completed,
                    "cache_hits": cache_hits,
                    "tasks_total": total,
                    "elapsed_seconds": elapsed,
                    "tasks_per_sec": (
                        completed / elapsed if elapsed > 0.0 else 0.0
                    ),
                }
            self.progress(
                TaskProgress(
                    task=task,
                    index=index,
                    total=total,
                    status=status,
                    completed=completed,
                    cache_hits=cache_hits,
                    result=result,
                    metrics=metrics,
                )
            )


# ----------------------------------------------------------------------
# Batch builders
# ----------------------------------------------------------------------
def sweep_tasks(
    base: Scenario,
    overrides: Iterable[Mapping[str, object]],
    profile: "ScaleProfile | str",
    seed: int,
    keep_snapshots: bool = False,
    measurement: MeasurementSpec = MeasurementSpec(),
    execution: ExecutionOptions = ExecutionOptions(),
) -> List[ExperimentTask]:
    """One task per override set applied to ``base`` (a parameter sweep)."""
    return [
        ExperimentTask.create(
            base.with_overrides(**dict(changes)), profile, seed,
            keep_snapshots=keep_snapshots, measurement=measurement,
            execution=execution,
        )
        for changes in overrides
    ]


def replication_tasks(
    scenario: Scenario,
    seeds: Sequence[int],
    profile: "ScaleProfile | str",
    keep_snapshots: bool = False,
    measurement: MeasurementSpec = MeasurementSpec(),
    execution: ExecutionOptions = ExecutionOptions(),
) -> List[ExperimentTask]:
    """One task per seed for the same scenario (multi-seed replication)."""
    return [
        ExperimentTask.create(
            scenario, profile, seed, keep_snapshots=keep_snapshots,
            measurement=measurement, execution=execution,
        )
        for seed in seeds
    ]
