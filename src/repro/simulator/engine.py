"""The discrete-event simulation loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

from repro.simulator.errors import SchedulingError
from repro.simulator.events import Event, EventQueue


class _PeriodicTask:
    """Self-rescheduling callback used by :meth:`Simulator.schedule_periodic`.

    A slotted instance instead of a per-schedule closure: the recurring
    reschedule pushes the same callable object back onto the queue, so a
    long-running periodic series allocates one object total (plus the heap
    entries), not one cell-capturing closure per series.
    """

    __slots__ = ("simulator", "interval", "callback", "end", "label")

    def __init__(
        self,
        simulator: "Simulator",
        interval: float,
        callback: Callable[[], Any],
        end: Optional[float],
        label: str,
    ) -> None:
        self.simulator = simulator
        self.interval = interval
        self.callback = callback
        self.end = end
        self.label = label

    def __call__(self) -> None:
        self.callback()
        simulator = self.simulator
        next_time = simulator._now + self.interval
        if self.end is None or next_time <= self.end:
            simulator._queue.push(next_time, self, label=self.label)


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Time is a float measured in **simulated minutes** to match the paper's
    figures.  Events fire in ``(time, scheduling order)`` order.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(5.0, lambda: fired.append(sim.now))
    >>> sim.run_until(10.0)
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._events_processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in minutes."""
        return self._now

    def clock(self) -> float:
        """Return the current simulated time (bound-method form of ``now``).

        Protocols hold this method as their clock callable; calling a bound
        method is cheaper than the lambda-over-property chain it replaces.
        """
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled — O(1).

        Cancelled-but-unpopped events are excluded: the queue counts them
        exactly, so this figure does not drift when the heap compacts.
        """
        return len(self._queue)

    @property
    def cancelled_pending_events(self) -> int:
        """Cancelled events still occupying heap slots (diagnostics)."""
        return self._queue.cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of in-place heap compactions performed (diagnostics)."""
        return self._queue.compactions

    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        label: str = "",
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        return self._queue.push(time, callback, label=label, args=args)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        label: str = "",
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` simulated minutes."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback, label=label, args=args)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: Optional[float] = None,
        end: Optional[float] = None,
        label: str = "",
    ) -> None:
        """Schedule ``callback`` every ``interval`` minutes.

        The first invocation happens at ``start`` (default: now + interval);
        rescheduling stops once the next invocation would be after ``end``.
        """
        if interval <= 0:
            raise SchedulingError(f"non-positive interval {interval}")
        first = self._now + interval if start is None else start
        if end is None or first <= end:
            task = _PeriodicTask(self, interval, callback, end, label)
            self.schedule_at(first, task, label=label)

    # ------------------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Execute events up to and including ``end_time``; advance the clock.

        The loop reads the heap directly instead of going through
        ``peek_time()`` + ``pop()``, which would pay two heap traversals
        per event; compaction mutates the heap list in place, so the local
        reference stays valid across callbacks.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        processed = 0
        while heap:
            time = heap[0][0]
            if time > end_time:
                break
            event = heappop(heap)[2]
            if event.cancelled:
                queue._cancelled -= 1
                continue
            # Detach before firing: a late cancel() on an already-fired
            # event must not touch the queue's cancellation counter.
            event._queue = None
            self._now = time
            event.callback(*event.args)
            processed += 1
        self._events_processed += processed
        if end_time > self._now:
            self._now = end_time

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` is reached).

        ``max_events`` counts **executed** events only: cancelled entries
        popped off the heap are accounted to the queue's cancellation
        counter, never against the caller's budget.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        executed = 0
        while heap:
            if max_events is not None and executed >= max_events:
                break
            event = heappop(heap)[2]
            if event.cancelled:
                queue._cancelled -= 1
                continue
            event._queue = None
            self._now = event.time
            event.callback(*event.args)
            executed += 1
        self._events_processed += executed

    def clear_pending(self) -> None:
        """Drop all pending events; the clock and counters stay as they are.

        The queued callbacks hold whatever they were scheduled with, so a
        finished run drops them to let its objects go.
        """
        self._queue.clear()

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        self.clear_pending()
        self._now = float(start_time)
        self._events_processed = 0
