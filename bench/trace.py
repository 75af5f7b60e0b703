"""In-memory spans around calls into the program's layers.

The benchmark times every layer from outside: a span is opened around
each call into a public function, named after the module it enters, and
kept in memory until the benchmark ends.  A span records its name,
start, end, the span that caused it (its parent) and the workload it
belongs to; counts read from the program's public counters are attached
at the same boundaries.  Self time is a span's duration minus the part
its children cover.  ``to_chrome`` renders the spans in the Chrome trace
event format, which ``chrome://tracing`` and Perfetto open directly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed call: name, start, end, parent index and attached counts."""

    __slots__ = ("name", "start", "end", "parent", "args")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.args: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one workload (single-threaded)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        """Time the enclosed block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent)
        record.args.update(args)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in start order."""
        return [span.duration for span in self.spans if span.name == name]

    def self_times(self) -> Dict[str, float]:
        """Per name: summed duration minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        result: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            result[span.name] = (
                result.get(span.name, 0.0) + span.duration - covered[index]
            )
        return result

    # ------------------------------------------------------------------
    def to_records(self) -> List[dict]:
        """Plain-data form of the spans (sent from the traced child)."""
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "args": span.args,
            }
            for span in self.spans
        ]


def to_chrome(workload: str, records: List[dict], counters: Dict[str, float]) -> dict:
    """Chrome trace event document for one workload's spans and counters.

    Spans become complete (``"X"``) events on one thread, so the viewer
    nests them by containment; every event carries the workload as its
    shared identifier and its parent's name.  Counters become one
    ``"C"`` event per name at the end of the trace.
    """
    origin = min((record["start"] for record in records), default=0.0)
    end = max((record["end"] for record in records), default=0.0)
    events = []
    for record in records:
        parent = record["parent"]
        args = dict(record["args"])
        args["workload"] = workload
        args["parent"] = records[parent]["name"] if parent is not None else None
        events.append(
            {
                "name": record["name"],
                "cat": record["name"].rsplit(".", 1)[0],
                "ph": "X",
                "ts": (record["start"] - origin) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    for name, value in sorted(counters.items()):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": (end - origin) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"value": value},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload},
    }
