"""Host calibration: how slow is this machine during this round?

The sizing host is a 2-CPU sandbox that shares its processor with other
tenants.  The same operation on the same input took 3.3 s in one minute
and 5.3 s in the next, for minutes at a time, with user CPU time rising
in step (no steal time is reported), so no statistic over the repeats of
one round removes it, and a change measured an hour after its parent
would be judged by the neighbours' load.

Two fixed pieces of pure-Python work track it: a CPU-bound integer loop
and a walk through a 64 MiB table in a scattered order (several times any
last-level cache share a 2-CPU sandbox gets).  Both are timed before
every operation of a round and after the last one, and

    slowness = sqrt(median loop time / its reference * median walk time / its reference)

over the round's calibrations divides the round's times, so that a time
is reported in seconds of the reference host.  The references are the two
times in a quiet minute of the sizing host; elsewhere they only fix the
unit.

What was tried while sizing (same instance repeated for 45 minutes that
held a quiet and a noisy stretch; spread = standard deviation / mean of
one operation's wall-clock): unscaled 16-20 %; scaled by the arithmetic
loop alone 9-11 %; by the geometric mean of both 8-10 %.  Between the quiet and the
noisy stretch the unscaled medians moved 30-40 %, the scaled ones
5-15 %.  Scaling each operation by the two calibrations next to it,
instead of the round by all of its calibrations, was worse on three
workloads of four: one half-second calibration is itself noisy.  A
sampling thread inside the operation's interpreter tracked the
arithmetic loop as well but followed the quiet-to-noisy move worse
(12-22 %), and forks badly with the campaign's worker pool.

The raw times are reported as ``host.calib_cpu_s`` and
``host.calib_mem_s``, and a run whose last walk time leaves
``DRIFT_BAND`` around its first is marked unsteady: scaling removes most
of a drift, not all of it.
"""

from __future__ import annotations

import math
import time
from array import array
from typing import Dict, Sequence

from bench.stats import median

#: Iterations of the CPU-bound loop and its time in a quiet minute.
CPU_ITERATIONS = 3_000_000
CPU_REFERENCE_S = 0.235
#: Eight-byte slots of the walked table (64 MiB), steps of the walk and
#: their time in a quiet minute.
WALK_ENTRIES = 1 << 23
WALK_STEPS = 1_200_000
WALK_REFERENCE_S = 0.29
#: A run is steady while last/first ``calib_mem_s`` stays in this band.
DRIFT_BAND = (0.9, 1.1)

Calibration = Dict[str, float]


def _cpu_loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total = (total + i * i) & 0xFFFFFF
    return total


def _walk(table: array, steps: int) -> int:
    # A full-period linear congruential sequence (multiplier = 1 mod 4,
    # odd increment, power-of-two modulus) visits every slot once in a
    # scattered order; each value read is needed at once, so the
    # interpreter cannot run ahead of the memory access.
    mask = len(table) - 1
    position = total = 0
    for _ in range(steps):
        position = (1_664_525 * position + 1_013_904_223) & mask
        total += table[position]
    return total


class Calibrator:
    """Owns the walked table; ``measure`` times both loops once."""

    def __init__(self) -> None:
        self._table = array("q", bytes(8 * WALK_ENTRIES))

    def measure(self) -> Calibration:
        """Time the two loops (about half a second together)."""
        started = time.perf_counter()
        _cpu_loop(CPU_ITERATIONS)
        cpu_s = time.perf_counter() - started
        started = time.perf_counter()
        _walk(self._table, WALK_STEPS)
        mem_s = time.perf_counter() - started
        return {"calib_cpu_s": cpu_s, "calib_mem_s": mem_s}


def typical(calibrations: Sequence[Calibration]) -> Calibration:
    """Per-loop median of several calibrations."""
    return {
        name: median([c[name] for c in calibrations])
        for name in ("calib_cpu_s", "calib_mem_s")
    }


def slowness(calibrations: Sequence[Calibration]) -> float:
    """Host slowness over the given calibrations (1.0 = the reference host)."""
    middle = typical(calibrations)
    return math.sqrt(
        middle["calib_cpu_s"] / CPU_REFERENCE_S * middle["calib_mem_s"] / WALK_REFERENCE_S
    )


def drift_ratio(first: Calibration, last: Calibration) -> float:
    """Last over first ``calib_mem_s``."""
    return last["calib_mem_s"] / first["calib_mem_s"]


def is_steady(ratio: float) -> bool:
    """Whether a drift ratio lies inside :data:`DRIFT_BAND`."""
    return DRIFT_BAND[0] <= ratio <= DRIFT_BAND[1]
