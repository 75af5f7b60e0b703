"""Self-healing primitives for campaign execution.

The campaign driver (:mod:`repro.runtime.campaign`) composes these into
its one dispatch loop:

:class:`RetryPolicy`
    Bounded attempts per task — a retryable failure re-queues its task
    at once, with no delay — and the session-respawn budget.
:func:`is_retryable`
    Error classification.  Infrastructure failures (broken pools, OS
    errors, timeouts, injected faults) are retryable; ordinary task
    exceptions are not — tasks are deterministic, so re-running a task
    that raised ``ValueError`` would raise it again.
:class:`TaskFailureRecord` / :class:`CampaignTaskFailure`
    The structured form of a *poison task*: a task that keeps failing
    in its own flight until its attempt budget runs out.  The campaign completes every
    other task, then raises :class:`CampaignTaskFailure` carrying the
    records and the partial results — "run() returned" still means
    "every result is valid".
:class:`ShutdownGuard`
    Cooperative SIGINT/SIGTERM handling: the first signal sets a flag the
    dispatch loop polls (stop dispatching, flush completed work, close
    sessions, raise :class:`CampaignInterrupted`); a second SIGINT
    raises :class:`KeyboardInterrupt` for users who really mean it.

None of these knobs enters a task fingerprint: retrying or degrading to
serial execution may change *when and where* a task runs, never a bit
of its result.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentResult

logger = logging.getLogger(__name__)

#: Environment override for the *default* per-task attempt budget:
#: consulted only when a campaign is constructed without an explicit
#: :class:`RetryPolicy`.  CI's chaos leg
#: uses it to run the determinism digest suite under an aggressive
#: ``REPRO_FAULTS`` crash profile with a budget that cannot be exhausted
#: by attempts charged to innocent in-flight tasks.  Identity-free like
#: every retry knob.
RETRIES_ENV_VAR = "REPRO_CAMPAIGN_RETRIES"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry/respawn policy.

    Parameters
    ----------
    max_attempts:
        Executions of a single task before it is poisoned.  ``1``
        disables retries; a retry is re-queued at once.
    max_respawns:
        Worker-pool respawns per ``run()`` after the pool broke (a worker
        died); once exhausted the campaign degrades to in-process serial
        execution for the remaining tasks.
    """

    max_attempts: int = 3
    max_respawns: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )

    @property
    def fail_fast(self) -> bool:
        """Whether every healing mechanism is disabled.

        Under a fail-fast policy the first flight error propagates out
        of ``run()`` unhealed — no retry, no respawn, no serial
        degradation.  The degradation guarantee matters for
        callers whose *task code* can kill its process (the healing loop
        would otherwise eventually re-run such a task in the driver
        process).
        """
        return self.max_attempts <= 1 and self.max_respawns == 0


#: Retry policy with every healing mechanism disabled — legacy fail-fast
#: dispatch (first error propagates, no respawn).
FAIL_FAST = RetryPolicy(max_attempts=1, max_respawns=0)


def default_retry_policy() -> RetryPolicy:
    """The policy campaigns use when none is passed explicitly.

    ``RetryPolicy()`` unless :data:`RETRIES_ENV_VAR` overrides the
    attempt budget; a malformed value raises :class:`ValueError` here
    (at campaign construction) rather than surfacing as mystery
    exhaustion mid-run.
    """
    configured = os.environ.get(RETRIES_ENV_VAR, "").strip()
    if configured == "":
        return RetryPolicy()
    try:
        attempts = int(configured)
    except ValueError:
        raise ValueError(
            f"{RETRIES_ENV_VAR} must be a positive integer, "
            f"got {configured!r}"
        ) from None
    return RetryPolicy(max_attempts=attempts)


def is_retryable(error: BaseException) -> bool:
    """Whether re-running the failed work could plausibly succeed.

    Broken pools (a worker died), OS errors (``ConnectionError``
    included) and timeouts are infrastructure failures; injected faults carry
    ``retryable = True`` themselves.  Everything else — ordinary
    exceptions raised *by* a deterministic task — would simply recur, so
    it fails fast into a poison record instead of burning the retry
    budget.

    The classification walks the exception chain (``__cause__`` and
    ``__context__``): a ``ConnectionError`` wrapped in a framework
    error — ``raise RuntimeError(...) from conn_err`` — must still heal.
    The walk visits each exception object once, so cyclic chains (which
    Python permits) terminate.
    """
    stack: List[BaseException] = [error]
    seen: set = set()
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, (BrokenExecutor, OSError, TimeoutError)):
            return True
        if bool(getattr(current, "retryable", False)):
            return True
        for linked in (current.__cause__, current.__context__):
            if isinstance(linked, BaseException):
                stack.append(linked)
    return False


@dataclass(frozen=True)
class TaskFailureRecord:
    """Structured record of one permanently failed (poison) task."""

    index: int
    key: str
    label: str
    attempts: int
    error_type: str
    error_message: str
    retryable: bool

    @classmethod
    def from_error(
        cls,
        index: int,
        key: str,
        label: str,
        attempts: int,
        error: BaseException,
    ) -> "TaskFailureRecord":
        return cls(
            index=index,
            key=key,
            label=label,
            attempts=attempts,
            error_type=type(error).__name__,
            error_message=str(error),
            retryable=is_retryable(error),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "retryable": self.retryable,
        }


class CampaignTaskFailure(RuntimeError):
    """Some tasks failed permanently; every other task completed.

    ``failures`` holds one :class:`TaskFailureRecord` per poison task;
    ``results`` the submission-ordered result list with ``None`` at the
    failed positions — completed work (already cached) is never thrown
    away with the exception.
    """

    def __init__(
        self,
        failures: Sequence[TaskFailureRecord],
        results: Sequence[Optional[ExperimentResult]],
    ) -> None:
        self.failures = list(failures)
        self.results = list(results)
        labels = ", ".join(record.label for record in self.failures[:3])
        if len(self.failures) > 3:
            labels += ", ..."
        super().__init__(
            f"{len(self.failures)} task(s) failed permanently after "
            f"retries: {labels}"
        )


class CampaignInterrupted(RuntimeError):
    """A shutdown signal stopped the campaign after a clean flush.

    Completed results were recorded (and cached), sessions closed and
    stats flushed before this was raised; a re-run resumes warm from the
    cache.
    """

    def __init__(self, signal_name: str, completed: int, total: int) -> None:
        self.signal_name = signal_name
        self.completed = completed
        self.total = total
        super().__init__(
            f"campaign interrupted by {signal_name} after {completed}/{total} "
            f"task(s); completed results are cached — re-run to resume"
        )


class ShutdownGuard:
    """Turns the first SIGINT/SIGTERM into a cooperative shutdown flag.

    Installed only in the main thread of the main interpreter (signal
    handlers cannot be set elsewhere); everywhere else it is an inert
    flag that never trips.  A second SIGINT raises
    :class:`KeyboardInterrupt` immediately — graceful shutdown must
    never take the ability to actually stop away from the user.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self._requested: Optional[str] = None
        self._previous: Dict[int, object] = {}
        self.installed = False

    @property
    def requested(self) -> Optional[str]:
        """Name of the received signal, or ``None``."""
        return self._requested

    def _handle(self, signum: int, _frame: object) -> None:
        if self._requested is not None and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self._requested = signal.Signals(signum).name

    def __enter__(self) -> "ShutdownGuard":
        if threading.current_thread() is not threading.main_thread():
            # Embedding a Campaign in a server/worker thread is
            # supported: signal handlers simply cannot be installed
            # there, so graceful-shutdown-on-signal is owned by whatever
            # runs the main thread.  Logged (once per guard) rather than
            # raised or silently ignored.
            logger.debug(
                "ShutdownGuard: not on the main thread; signal handlers "
                "not installed (cooperative shutdown disabled for this "
                "campaign)"
            )
            return self
        try:
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(
                    signum, self._handle
                )
            self.installed = True
        except ValueError:  # pragma: no cover - non-main interpreter
            self._previous.clear()
        return self

    def __exit__(self, *_exc_info) -> None:
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, TypeError):  # pragma: no cover
                pass
        self._previous.clear()
        self.installed = False
