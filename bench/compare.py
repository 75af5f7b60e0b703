"""Compare two benchmark result files, metric by metric and workload by workload.

``python3 bench/compare.py A.json B.json`` reads two files written by
``bench/run.py`` (A is the parent, B the change) and prints one verdict
per (end-to-end metric, workload), each in its own row, from the bounds
in ``BENCHMARK.json`` and the run-to-run spread:

``regressed``   B's median is worse than A's by more than the bound.
``improved``    B's median is better by more than the distance between
                A's quartiles, and B wins at least nine tenths of all
                (A run, B run) pairs, ties counting for neither.
``unresolved``  the spread of either side (quartile distance over
                median) is wider than the bound, so neither of the above
                can be told from ``unchanged`` — unless every run of B
                beats every run of A (``improved``) or every run of B
                loses to every run of A by more than the bound
                (``regressed``).
``unchanged``   none of the above.

Every ratio is printed with its base.  The exit code is 1 when any row
regressed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import the benchmark as the package ``bench``
    # (see bench/worker.py), not its files as top-level modules.
    sys.path[0] = str(ROOT)

from bench import stats  # noqa: E402

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")
#: Share of (A run, B run) pairs B must win before a gain is claimed.
WIN_SHARE = 0.9


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """Verdict for one metric on one workload; ``a`` and ``b`` are per-round values."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = stats.median(a), stats.median(b)
    base = abs(median_a)
    if base == 0.0:
        return "unchanged" if median_b == median_a else "unresolved"
    worse_by = sign * (median_b - median_a) / base
    wins = sum(sign * (y - x) < 0 for x in a for y in b)
    losses = sum(sign * (y - x) > 0 for x in a for y in b)
    pairs = len(a) * len(b)

    if max(stats.spread(a), stats.spread(b)) > bound:
        if wins == pairs:
            return "improved"
        if losses == pairs and worse_by > bound:
            return "regressed"
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    q1, q3 = stats.quartiles(a)
    decided = wins + losses
    if -worse_by * base > (q3 - q1) and decided and wins / decided >= WIN_SHARE:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    """One row per (end-to-end metric, workload) present in both files."""
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = a["end_to_end"].get(workload, {}).get(name)
            values_b = b["end_to_end"].get(workload, {}).get(name)
            if not values_a or not values_b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": stats.summarize(values_a),
                    "b": stats.summarize(values_b),
                    "spread_a": stats.spread(values_a),
                    "spread_b": stats.spread(values_b),
                    "verdict": verdict(values_a, values_b, metric["better"], metric["bound"]),
                }
            )
    return rows


def format_rows(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<18}{'metric':<15}{'A median':>12}{'B median':>12}  {'B/A':>7}  "
        f"{'spread A':>8} {'spread B':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        base = row["a"]["median"]
        ratio = row["b"]["median"] / base if base else float("nan")
        lines.append(
            f"{row['workload']:<18}{row['metric']:<15}"
            f"{base:>10.4f} {row['unit']:<2}{row['b']['median']:>10.4f} {row['unit']:<2}"
            f"{ratio:>7.3f}x of {base:.4g} {row['unit']}"
            f"{row['spread_a']:>8.3f} {row['spread_b']:>8.3f} {row['bound']:>6}  {row['verdict']}"
            f" (n={row['a']['n']}/{row['b']['n']})"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for label, document in (("A", a), ("B", b)):
        state = "steady" if document["steady"] else "UNSTEADY"
        print(f"{label}: seed {document['seed']}, {document['rounds']} rounds, python {document['python']}, "
              f"nproc {document['nproc']}, host.drift_ratio {document['host']['drift_ratio']:.3f} ({state})")
    rows = compare(a, b, spec)
    print(format_rows(rows))
    counts = {name: sum(row["verdict"] == name for row in rows) for name in VERDICTS}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
