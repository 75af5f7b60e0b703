"""Lightweight span-style tracing with JSONL export.

One record per traced unit of work — campaign, task, experiment
run, snapshot, pair-flow evaluation, shard — appended as a single JSON
line to the file named by ``REPRO_OBS_TRACE`` (or
:func:`configure_tracer`).  Records carry span/parent ids so a trace can
be reassembled into a tree:

``{"name": ..., "id": "<pid>-<n>", "parent": ... | null, "pid": ...,``
``"t": <epoch seconds>, "dur": <seconds, spans only>, "attrs": {...}}``

Parenting is per process and per thread: a :meth:`Tracer.span` pushed on
the thread-local stack becomes the parent of every span/point opened
beneath it.  Worker processes append to the same file (ids embed the
pid, so they never collide); cross-process linkage is by *attributes* —
a worker-side ``experiment.run`` span carries the scenario/profile/seed
that identify its campaign-side ``task`` point — not by parent ids.

Virtual time rides in the attributes: snapshot points record the
simulated time ``vt`` at which they were taken, so a trace interleaves
wall-clock duration with virtual-time position.

Like the metrics registry, tracing is identity-free: it only ever
*writes* to a sidecar file and never feeds anything back into the
simulation.  When no tracer is configured, :func:`span` returns a
shared no-op context manager and :func:`point` returns immediately —
no allocations.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Optional, TextIO

#: Environment variable naming the JSONL trace file (unset = tracing off).
ENV_VAR = "REPRO_OBS_TRACE"


class Span:
    """One open span; a context manager that writes its record on exit."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "_started")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._new_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = time.time()
        self._tracer._push(self)
        return self

    def __exit__(self, *_exc_info) -> None:
        self._tracer._pop(self)
        self._tracer._write(
            {
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "pid": os.getpid(),
                "t": self._started,
                "dur": time.time() - self._started,
                "attrs": self.attrs,
            }
        )


class _NullSpan:
    """Shared no-op stand-in returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Appends span/point records to one JSONL file.

    The file is opened lazily (first record) in append mode, one
    ``json.dumps`` line per record, flushed per write — short lines stay
    atomic enough for several worker processes appending to the same
    trace in practice, and a reader only ever sees whole lines plus at
    most one partial tail.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[TextIO] = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _new_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{os.getpid():x}-{self._next_id:x}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span on this thread (None at top level)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span parented to the innermost span on this thread."""
        return Span(self, name, self.current_span_id(), attrs)

    def point(self, name: str, **attrs: Any) -> None:
        """Write a zero-duration record (one task / shard / snapshot)."""
        self._write(
            {
                "name": name,
                "id": self._new_id(),
                "parent": self.current_span_id(),
                "pid": os.getpid(),
                "t": time.time(),
                "attrs": attrs,
            }
        )

    # ------------------------------------------------------------------
    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._file is None:
                try:
                    self._file = open(self.path, "a", encoding="utf-8")
                except OSError:
                    return  # tracing is best-effort; never fail the run
            try:
                self._file.write(line)
                self._file.flush()
            except OSError:  # pragma: no cover - disk full etc.
                pass

    def close(self) -> None:
        """Close the trace file (idempotent)."""
        with self._lock:
            file, self._file = self._file, None
            if file is not None:
                file.close()


#: Process tracer (None = tracing off).  Created at import time from the
#: environment so worker processes trace without extra plumbing.
_TRACER: Optional[Tracer] = (
    Tracer(os.environ[ENV_VAR]) if os.environ.get(ENV_VAR) else None
)
_ENV_EXPORTED = False


def active_tracer() -> Optional[Tracer]:
    """The process tracer, or None when tracing is off."""
    return _TRACER


def configure_tracer(path: str) -> Tracer:
    """Enable tracing to ``path`` and export it to worker processes."""
    global _TRACER, _ENV_EXPORTED
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(str(path))
    if os.environ.get(ENV_VAR) != str(path):
        os.environ[ENV_VAR] = str(path)
        _ENV_EXPORTED = True
    return _TRACER


def reset_tracer() -> None:
    """Reset tracing to what the environment says (tests/CLI teardown).

    Closes the current tracer, undoes any export made by
    :func:`configure_tracer`, then re-initialises from ``REPRO_OBS_TRACE``
    — exactly the state a freshly spawned process would observe.
    """
    global _TRACER, _ENV_EXPORTED
    if _TRACER is not None:
        _TRACER.close()
    if _ENV_EXPORTED:
        os.environ.pop(ENV_VAR, None)
        _ENV_EXPORTED = False
    _TRACER = Tracer(os.environ[ENV_VAR]) if os.environ.get(ENV_VAR) else None


def span(name: str, **attrs: Any):
    """Module-level convenience: a span, or a shared no-op when off."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def point(name: str, **attrs: Any) -> None:
    """Module-level convenience: a point record, or nothing when off."""
    tracer = _TRACER
    if tracer is not None:
        tracer.point(name, **attrs)
