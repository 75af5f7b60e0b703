"""Deterministic fault injection for the experiment runtime.

The resilience layer (retry, session respawn, cache quarantine
— see :mod:`repro.runtime.resilience` and the campaign driver) must be
provable without flaky tests.  This module provides the harness: a
:class:`FaultPlan` parsed from the ``REPRO_FAULTS`` environment variable
(or the ``--faults`` CLI option, which sets it) describes *which* fault
fires at *which occurrence* of each injection site, so a chaos test
can assert "the second task execution in every worker process crashes"
and get exactly that, on every run, on every machine.

Sites and kinds
---------------
``task-error``
    Raise :class:`InjectedTaskError` instead of running a task.
``worker-crash``
    Hard-kill the executing process with ``os._exit`` mid-task —
    *worker processes only* (a plan can never take down the campaign
    driver itself; in-process execution ignores crash faults).
``corrupt-read``
    Flip a byte of the on-disk cache entry before a ``get`` reads it.
``corrupt-write``
    Flip a byte of the serialised payload after its checksum was
    computed, so the entry lands corrupt on disk.

Spec grammar
------------
Semicolon-separated clauses, each ``kind@n[,n...]``::

    worker-crash@2;task-error@1,4;corrupt-write@1

The numbers are 1-based occurrences: the nth time that kind's site is
reached *in the observing process*.  A fault fires at exactly the listed
occurrences and nowhere else; no clause draws a random number.

Occurrence counters are per process: a respawned worker starts a fresh
count, which is exactly what makes "every worker crashes on its second
task" expressible — the property the bounded-respawn/degrade-to-serial
ladder is tested against.

Like every scheduling knob, ``REPRO_FAULTS`` is identity-free: it never
enters a task fingerprint, so results computed under injected faults are
cached and compared interchangeably with fault-free ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple, Union

#: Environment variable holding the fault spec (exported to workers).
ENV_VAR = "REPRO_FAULTS"

#: Fault kinds (also the clause names of the spec grammar).
KIND_TASK_ERROR = "task-error"
KIND_WORKER_CRASH = "worker-crash"
KIND_CORRUPT_READ = "corrupt-read"
KIND_CORRUPT_WRITE = "corrupt-write"
KINDS = (
    KIND_TASK_ERROR,
    KIND_WORKER_CRASH,
    KIND_CORRUPT_READ,
    KIND_CORRUPT_WRITE,
)

#: Exit status of an injected worker crash (distinguishable from real
#: segfaults and from pytest/interpreter exits in test assertions).
CRASH_EXIT_CODE = 73


class FaultError(RuntimeError):
    """Base class of injected failures.

    ``retryable`` marks them for the campaign's retry classification —
    an injected fault models a transient infrastructure failure, which
    is precisely the class of error a retry is allowed to heal.
    """

    retryable = True


class InjectedTaskError(FaultError):
    """Raised in place of running a task when a ``task-error`` fault fires."""


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec that does not parse."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed clause: when a fault kind fires."""

    kind: str
    occurrences: FrozenSet[int]


@dataclass
class FaultPlan:
    """A parsed fault spec plus this process's occurrence counters."""

    rules: Dict[str, FaultRule]
    spec: str = ""
    counters: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (see the module docstring for the grammar)."""
        rules: Dict[str, FaultRule] = {}
        for raw_clause in spec.split(";"):
            clause = raw_clause.strip()
            if not clause:
                continue
            if "@" not in clause:
                raise FaultSpecError(
                    f"fault clause {clause!r} is missing '@matcher' "
                    f"(expected e.g. 'worker-crash@2')"
                )
            kind, _, rest = clause.partition("@")
            kind = kind.strip()
            if kind not in KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r}; expected one of {KINDS}"
                )
            if kind in rules:
                raise FaultSpecError(f"duplicate fault clause for {kind!r}")
            matcher = rest.strip()
            try:
                numbers = [int(part) for part in matcher.split(",")]
            except ValueError:
                raise FaultSpecError(
                    f"invalid occurrence matcher {matcher!r} in "
                    f"clause {clause!r}"
                )
            if any(number < 1 for number in numbers):
                raise FaultSpecError(
                    f"occurrences must be >= 1 in clause {clause!r}"
                )
            rules[kind] = FaultRule(kind=kind, occurrences=frozenset(numbers))
        return cls(rules=rules, spec=spec)

    def check(self, kind: str) -> Optional[FaultRule]:
        """Count one occurrence of ``kind``'s site; return a firing rule.

        Sites without a configured rule are not counted, so adding a
        clause for one kind never shifts another kind's occurrence
        numbering.
        """
        rule = self.rules.get(kind)
        if rule is None:
            return None
        occurrence = self.counters.get(kind, 0) + 1
        self.counters[kind] = occurrence
        if occurrence in rule.occurrences:
            return rule
        return None


# ----------------------------------------------------------------------
# Per-process active plan (parsed lazily from the environment, so worker
# processes — which inherit the environment — build their own plan with
# fresh occurrence counters).
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tuple[str, FaultPlan]] = None


def active_plan() -> Optional[FaultPlan]:
    """The process's fault plan, or ``None`` when ``REPRO_FAULTS`` is unset.

    Parsed once per distinct spec string and cached together with its
    occurrence counters; a malformed spec raises :class:`FaultSpecError`
    at the first injection site rather than silently injecting nothing.
    """
    global _ACTIVE
    spec = os.environ.get(ENV_VAR, "").strip()
    if not spec:
        return None
    if _ACTIVE is None or _ACTIVE[0] != spec:
        _ACTIVE = (spec, FaultPlan.parse(spec))
    return _ACTIVE[1]


def reset() -> None:
    """Drop the cached plan and its counters (tests and CLI runs)."""
    global _ACTIVE
    _ACTIVE = None


def in_worker_process() -> bool:
    """Whether this process is a multiprocessing worker."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


def maybe_inject_task_fault(label: str = "") -> None:
    """Fire any task-execution faults due at this site.

    Called once per task execution by the executor layer.  Crash faults
    only ever fire in worker processes: injected chaos must be able to
    kill workers (the campaign heals them) but never the campaign driver
    itself — degrading to the serial executor is safe for the same
    reason.
    """
    plan = active_plan()
    if plan is None:
        return
    if in_worker_process() and plan.check(KIND_WORKER_CRASH) is not None:
        # A hard crash, not an exception: skips atexit handlers and
        # pool bookkeeping exactly like an OOM kill would.
        os._exit(CRASH_EXIT_CODE)
    if plan.check(KIND_TASK_ERROR) is not None:
        raise InjectedTaskError(
            f"injected task fault ({label or 'task'})"
        )


def corrupt_payload(data: bytes) -> bytes:
    """Deterministically corrupt ``data`` (flip one bit mid-payload)."""
    if not data:
        return b"\x00"
    position = len(data) // 2
    corrupted = bytearray(data)
    corrupted[position] ^= 0x01
    return bytes(corrupted)


def maybe_corrupt_bytes(kind: str, data: bytes) -> bytes:
    """Return ``data``, corrupted when a ``kind`` fault is due."""
    plan = active_plan()
    if plan is None or plan.check(kind) is None:
        return data
    return corrupt_payload(data)


def maybe_corrupt_file(path: Union[str, Path]) -> None:
    """Corrupt the file at ``path`` in place when a ``corrupt-read`` is due."""
    plan = active_plan()
    if plan is None or plan.check(KIND_CORRUPT_READ) is None:
        return
    target = Path(path)
    try:
        target.write_bytes(corrupt_payload(target.read_bytes()))
    except OSError:
        pass
