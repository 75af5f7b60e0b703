"""Task executors.

An :class:`Executor` is a factory of worker *sessions*.
:meth:`Executor.open_session` returns a serial session (every call runs
in the current process) or, on a :class:`ParallelExecutor`, a pool
session pinning worker processes until ``close()``; both have ``map``,
``submit`` and ``close``.  Because each :class:`ExperimentTask` carries
its own seed-derived random universe, execution order and process
placement cannot influence any result: :class:`ParallelExecutor` is
bit-identical to :class:`SerialExecutor` (the equivalence is asserted by
``tests/runtime``).

Two callers share the one session shape:

* the campaign (:mod:`repro.runtime.campaign`) submits
  :func:`~repro.runtime.task.execute_task` once per task on one session
  that lives as long as the campaign.  Workers stay warm across its
  tasks: imported modules stay imported and bytecode stays specialised —
  the dominant per-task overhead under the ``spawn`` start method, paid
  once per session instead of once per task;
* the pair-flow engine (:mod:`repro.runtime.pairflow`) maps shards onto
  a session it borrows from the analyzer.  The compact network travels
  with the shards, so one pool serves every snapshot of a run.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import Future
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

logger = logging.getLogger("repro.runtime.executor")


class _SerialSession:
    """Runs every call in the current process."""

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``items`` and return results in submission order."""
        return [fn(item) for item in items]

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """Run one call inline and return its already-settled future.

        The same contract as :meth:`_PoolSession.submit` with zero
        concurrency: completion order equals submission order, and a
        raising call fails its own future instead of raising here.
        """
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(item))
        except BaseException as error:
            future.set_exception(error)
        return future

    def close(self) -> None:
        """Nothing to release for in-process execution."""


class _PoolSession:
    """Dispatches calls onto a live :class:`ProcessPoolExecutor`.

    The session *owns* its pool through ``owned``: :meth:`close` unwinds
    the stack (shutting the pool down and restoring the exported
    ``PYTHONPATH``).
    """

    def __init__(self, pool: ProcessPoolExecutor, owned: ExitStack) -> None:
        self._pool = pool
        self._owned: Optional[ExitStack] = owned

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``items`` on the pool, results in submission order."""
        futures = [self._pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            # A failing call must not leave the rest of the batch queued:
            # cancel whatever has not started so the session can be
            # closed (or reused, when the pool survived) immediately.
            cancelled = sum(future.cancel() for future in futures)
            if cancelled:
                logger.warning(
                    "cancelling %d queued call(s) after a failed pool call",
                    cancelled,
                )
            raise

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """Submit one call onto the pool (raises if the pool is broken).

        The caller owns completion handling (``wait``, retries): this is
        the primitive under the campaign's resilient dispatch loop.
        """
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


class Executor:
    """A factory of worker sessions; the base class executes in-process."""

    #: Number of concurrent worker processes this executor dispatches to
    #: (1 for in-process execution).  The campaign sizes its in-flight
    #: window by it.
    worker_count: int = 1

    def open_session(self) -> _SerialSession | _PoolSession:
        """Open a session whose lifetime the *caller* controls.

        The returned session stays open until its ``close()`` is called:
        a campaign keeps one across all its runs, the analyzer one
        across every snapshot of a run.  The serial default runs each
        call in the current process and has nothing to release.
        """
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
        per-task overhead the campaign's persistent session amortises.
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
        # analyzer that imports this module.
        import multiprocessing

        self._mp_context = (
            multiprocessing.get_context(start_method)
            if start_method is not None
            else None
        )

    @property
    def worker_count(self) -> int:  # type: ignore[override]
        return self.jobs

    def open_session(self) -> _PoolSession:
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
#: A campaign's persistent session keeps the export alive for its life,
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
