"""Task executors.

An :class:`Executor` is a factory of worker *sessions*.  Because each
:class:`ExperimentTask` carries its own seed-derived random universe,
execution order and process placement cannot influence any result:
:class:`ParallelExecutor` is bit-identical to :class:`SerialExecutor` (the
equivalence is asserted by ``tests/runtime``).

The generic *session* API (:meth:`Executor.open_session`) is used by the
batched pair-flow engine (:mod:`repro.runtime.pairflow`): a session pins
worker processes for its whole lifetime and runs an optional initializer
once per worker, so per-snapshot state (the compact Even-transformed
network) is shipped to each worker exactly once and then reused by every
shard dispatched through :meth:`ExecutionSession.map`.

On top of it sits the *task session*
(:meth:`Executor.open_task_session` → :class:`TaskSession`), the one way
experiment tasks reach a worker: a long-lived pool that runs one task
per worker call (:func:`execute_session_task`), each submitted as a
future the campaign driver tracks.  Workers stay warm across the tasks
of a session: imported modules stay imported and bytecode stays
specialised — the dominant per-task overhead under the ``spawn`` start
method, paid once per session instead of once per task.
"""

from __future__ import annotations

import logging
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import Future
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.runner import ExperimentResult
    from repro.runtime.task import ExperimentTask

logger = logging.getLogger("repro.runtime.executor")


class ExecutionSession(ABC):
    """A pinned set of workers accepting successive batches of calls."""

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``items`` and return results in submission order."""

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """Submit one call and return its :class:`~concurrent.futures.Future`.

        The primitive under the campaign's resilient dispatch loop: the
        caller owns completion handling (``wait``, retries) instead of
        the session.  The serial default executes
        inline and returns an already-settled future, so completion order
        equals submission order in one process — same contract, zero
        concurrency.
        """
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(item))
        except BaseException as error:
            future.set_exception(error)
        return future

    def close(self) -> None:
        """Release session-owned resources (no-op unless the session owns a pool)."""


class _SerialSession(ExecutionSession):
    """Runs every call in the current process."""

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        return [fn(item) for item in items]

    def close(self) -> None:
        """Nothing to release for in-process execution."""


class _PoolSession(ExecutionSession):
    """Dispatches calls onto a live :class:`ProcessPoolExecutor`.

    The session *owns* its pool through ``owned``: :meth:`close` unwinds
    the stack (shutting the pool down and restoring the exported
    ``PYTHONPATH``).
    """

    def __init__(self, pool: ProcessPoolExecutor, owned: ExitStack) -> None:
        self._pool = pool
        self._owned: Optional[ExitStack] = owned

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        futures = [self._pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            # A failing call (or a worker initializer that broke the
            # pool) must not leave the rest of the batch queued: cancel
            # whatever has not started so the session can be closed (or
            # reused, when the pool survived) immediately.
            logger.warning(
                "cancelling %d queued call(s) after a failed pool call",
                len(futures),
            )
            for future in futures:
                future.cancel()
            raise

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """Submit one call onto the pool (raises if the pool is broken)."""
        return self._pool.submit(fn, item)

    def close(self) -> None:
        """Shut down the pool (idempotent)."""
        owned, self._owned = self._owned, None
        if owned is not None:
            self._reap_broken_workers()
            owned.close()

    def _reap_broken_workers(self) -> None:
        """Kill surviving workers of a *broken* pool before shutdown.

        When a worker dies mid-call it can take the shared call-queue
        lock with it; a sibling blocked in ``call_queue.get()`` then
        never sees the shutdown sentinel, and ``shutdown(wait=True)``
        joins it forever (CPython < 3.12 does not kill workers in
        ``terminate_broken``).  The pool is already broken — every
        pending future has failed and the campaign re-runs the work —
        so reaping the survivors loses nothing and unblocks the join.
        """
        if not getattr(self._pool, "_broken", False):
            return
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            if process.is_alive():
                logger.warning(
                    "killing worker %s stuck in a broken pool", process.pid
                )
                process.kill()


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
#: Per-process throughput counter (one per worker process; also one in
#: the parent process when a serial session runs tasks in-process).
#: Diagnostics only — the warmth a persistent worker keeps is the process
#: itself (interpreter start-up, imports, specialised bytecode); Python-
#: level caching of runner objects was measured to save nothing on top.
_WORKER_COUNTERS = {"tasks_executed": 0}


def execute_session_task(task: ExperimentTask) -> ExperimentResult:
    """Worker entry point: run one task of a task session.

    The task goes through :func:`~repro.runtime.task.execute_task`, the
    one fault-injection site.
    """
    # The task layer imports the simulator; the pair-flow engine, which
    # imports this module, must not.
    from repro.runtime.task import execute_task

    _WORKER_COUNTERS["tasks_executed"] += 1
    return execute_task(task)


def _worker_counters_snapshot(_item: Any = None) -> Dict[str, int]:
    """Report the calling process's throughput counter (test/debug aid)."""
    return {"pid": os.getpid(), **_WORKER_COUNTERS}


class TaskSession:
    """A long-lived dispatcher of experiment tasks.

    Wraps one caller-owned :class:`ExecutionSession` (a pinned worker
    pool, or the current process for serial executors) and runs one task
    per worker call through :func:`execute_session_task`.  The session —
    and with it every warm worker — survives across :meth:`submit` calls
    until :meth:`close`, which is what turns a grid of small simulations
    from "one pool per task" into "one pool per campaign".

    Failure containment: tasks are independent worker calls, so a task
    that raises (or a worker that dies) fails its own future and no
    other.  A dead worker breaks the underlying process pool — callers
    must close this session and open a fresh one; unfinished tasks
    simply re-run there (or are served from the cache next time).
    """

    def __init__(self, session: ExecutionSession) -> None:
        self._session = session

    def submit(self, task: ExperimentTask) -> Future:
        """Submit one task and return the future of its result.

        The caller owns completion handling, which is what lets the
        campaign driver track per-task completion and re-dispatch failed
        tasks.  On a serial session the
        task executes inline and the returned future is already settled.
        """
        return self._session.submit(execute_session_task, task)

    def warm_state_snapshots(self, probes: int = 1) -> List[Dict[str, int]]:
        """Sample per-worker throughput counters (diagnostics/tests)."""
        return self._session.map(_worker_counters_snapshot, list(range(probes)))

    def close(self) -> None:
        """Release the underlying session (idempotent)."""
        self._session.close()


class Executor:
    """A factory of worker sessions; the base class executes in-process."""

    #: Number of concurrent worker processes this executor dispatches to
    #: (1 for in-process execution).  The campaign sizes its in-flight
    #: window by it.
    worker_count: int = 1

    def open_task_session(self) -> TaskSession:
        """Open a caller-owned :class:`TaskSession` over a persistent pool.

        The serial default runs tasks in the current process; parallel
        executors pin one process pool whose workers stay warm across
        every task of the session.  The caller must ``close()`` it.
        """
        return TaskSession(self.open_session())

    def open_session(
        self,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> ExecutionSession:
        """Open a session whose lifetime the *caller* controls.

        The returned session stays open until its ``close()`` is called —
        the pair-flow engine pool reuse keeps one session alive across
        every snapshot of an experiment run.  The serial default runs
        the initializer in-process and returns a no-op-close session;
        parallel executors run it once per worker process when the worker
        starts, which is what lets callers ship a large read-only payload
        (e.g. a compact residual network) to each worker exactly once
        instead of once per submitted item.
        """
        if initializer is not None:
            initializer(*initargs)
        return _SerialSession()


class SerialExecutor(Executor):
    """Runs every task in the current process, one after another."""


class ParallelExecutor(Executor):
    """Runs tasks on a :class:`concurrent.futures.ProcessPoolExecutor`.

    Parameters
    ----------
    jobs:
        Number of worker processes per session (defaults to the CPU
        count); workers spawn lazily, on first use.
    start_method:
        Multiprocessing start method for worker pools (``"fork"``,
        ``"spawn"`` or ``"forkserver"``; ``None`` keeps the platform
        default).  Purely an execution knob — results are bit-identical
        under every method because tasks carry their own random
        universes — but the *cost* profile differs sharply: ``spawn``
        (the only method on Windows, the default on macOS, and the
        direction CPython is moving on Linux) starts a fresh interpreter
        per worker and re-imports ``repro``, which is exactly the
        per-task overhead the persistent task session amortises.
    """

    def __init__(
        self, jobs: Optional[int] = None, start_method: Optional[str] = None
    ) -> None:
        resolved = jobs if jobs is not None else os.cpu_count() or 1
        if resolved < 1:
            raise ValueError(f"jobs must be >= 1, got {resolved}")
        self.jobs = resolved
        self.start_method = start_method
        # The process-pool machinery (and the ``socket`` module it pulls
        # in) loads with the first parallel executor, not with the
        # pair-flow engine that imports this module.
        import multiprocessing

        self._mp_context = (
            multiprocessing.get_context(start_method)
            if start_method is not None
            else None
        )

    @property
    def worker_count(self) -> int:  # type: ignore[override]
        return self.jobs

    def open_session(
        self,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> ExecutionSession:
        """Open a caller-owned pool session (see :meth:`Executor.open_session`).

        The exported package path stays in the environment until
        ``close()`` because workers spawn lazily, on first submit.  If
        pool construction itself fails, the stack unwinds immediately so
        no environment mutation (or half-built pool) outlives the error.
        """
        from concurrent.futures import ProcessPoolExecutor

        stack = ExitStack()
        try:
            stack.enter_context(_exported_package_path())
            pool = stack.enter_context(
                ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=self._mp_context,
                    initializer=initializer,
                    initargs=initargs,
                )
            )
        except BaseException:
            stack.close()
            raise
        return _PoolSession(pool, owned=stack)


def make_executor(jobs: Optional[int] = None) -> Executor:
    """Return the executor matching a ``--jobs`` value.

    ``None`` or ``1`` selects :class:`SerialExecutor`; anything larger a
    :class:`ParallelExecutor` with that many workers.  Zero and negative
    values are rejected — historically they silently degraded to serial
    execution, which masked misconfigured callers.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)


#: Reference count / pre-export snapshot of the ``PYTHONPATH`` export.
#: Persistent task sessions keep the export alive for a whole campaign,
#: so two campaigns can overlap in one process; restoring per-context
#: (each context re-instating whatever it saw at *its* open) would let
#: an early close strip the path out from under a still-open session, or
#: re-instate a stale snapshot.  The export is therefore process-global:
#: first opener saves and sets, last closer restores.
# Reentrant: Campaign.__del__ may close a session from a GC pass that
# triggers while this thread is already inside the critical section (the
# environ mutation allocates); a plain Lock would self-deadlock there.
_EXPORT_LOCK = threading.RLock()
_EXPORT_DEPTH = 0
_EXPORT_ORIGINAL: Optional[str] = None


@contextmanager
def _exported_package_path():
    """Make ``repro`` importable in spawned worker processes.

    With the ``fork`` start method children inherit ``sys.path`` directly;
    with ``spawn``/``forkserver`` they re-initialise it from ``PYTHONPATH``,
    so the directory containing the ``repro`` package is prepended to the
    environment while any pool is alive and restored when the last one
    closes (later, unrelated subprocesses must not inherit the modified
    import path).  Reference-counted so overlapping sessions — e.g. two
    campaigns, or a campaign pool plus a pair-flow pool — compose.
    """
    global _EXPORT_DEPTH, _EXPORT_ORIGINAL
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    with _EXPORT_LOCK:
        if _EXPORT_DEPTH == 0:
            _EXPORT_ORIGINAL = os.environ.get("PYTHONPATH")
            parts = (
                _EXPORT_ORIGINAL.split(os.pathsep) if _EXPORT_ORIGINAL else []
            )
            if package_root not in parts:
                os.environ["PYTHONPATH"] = os.pathsep.join(
                    [package_root] + parts
                )
        _EXPORT_DEPTH += 1
    try:
        yield
    finally:
        with _EXPORT_LOCK:
            _EXPORT_DEPTH -= 1
            if _EXPORT_DEPTH == 0:
                if _EXPORT_ORIGINAL is None:
                    os.environ.pop("PYTHONPATH", None)
                else:
                    os.environ["PYTHONPATH"] = _EXPORT_ORIGINAL
                _EXPORT_ORIGINAL = None
