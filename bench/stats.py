"""Order statistics used by the benchmark: median, quartiles, percentiles.

The quartile rule is Python's ``statistics.quantiles(values, n=4)``
(exclusive method) because the driver that accepts or rejects the
benchmark computes run-to-run spread with exactly that call; percentiles
use linear interpolation between closest ranks.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    One value has no spread: both quartiles equal it.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when median is 0)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and sample count of a non-empty sequence."""
    q1, q3 = quartiles(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "min": float(min(values)),
        "max": float(max(values)),
        "n": len(values),
    }
