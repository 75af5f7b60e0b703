"""Report generators — the rows and series of every table and figure.

Every public function returns plain data (lists of dictionaries) *and* has a
``format_*`` companion that renders the same content as an aligned text
table, which is what the benchmark harness prints so the reproduced numbers
sit next to the timing output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Tuple

from repro.analysis.figures import format_table, render_series_table
from repro.churn.loss import LOSS_SCENARIOS

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentResult


# ----------------------------------------------------------------------
# Table 1 — message loss scenarios
# ----------------------------------------------------------------------
def table1_rows() -> List[Dict[str, float]]:
    """Rows of Table 1: loss scenario, one-way and two-way probabilities."""
    rows = []
    for name in ("none", "low", "medium", "high"):
        model = LOSS_SCENARIOS[name]
        rows.append(
            {
                "loss": name,
                "p_loss_one_way": round(model.one_way_probability * 100.0, 1),
                "p_loss_two_way": round(model.two_way_probability * 100.0, 1),
            }
        )
    return rows


def format_table1() -> str:
    """Render Table 1 as text."""
    rows = table1_rows()
    return format_table(
        ["Loss l", "Ploss(1-way) %", "Ploss(2-way) %"],
        [[row["loss"], row["p_loss_one_way"], row["p_loss_two_way"]] for row in rows],
    )


# ----------------------------------------------------------------------
# Table 2 — mean and relative variance of the minimum connectivity
# ----------------------------------------------------------------------
def table2_rows(results: Iterable[ExperimentResult]) -> List[Dict[str, object]]:
    """Rows of Table 2 from Simulations E–H results.

    One row per (size class, k, churn): the mean and relative variance of
    the minimum connectivity during the churn phase.
    """
    rows = []
    for result in results:
        scenario = result.scenario
        rows.append(
            {
                "size_class": scenario.size_class,
                "k": scenario.bucket_size,
                "churn": scenario.churn,
                "mean": round(result.churn_mean_minimum(), 2),
                "rv": round(result.churn_relative_variance_minimum(), 2),
            }
        )
    rows.sort(key=lambda row: (row["size_class"] == "large", row["k"], row["churn"]))
    return rows


def format_table2(results: Iterable[ExperimentResult]) -> str:
    """Render Table 2 as text."""
    rows = table2_rows(results)
    return format_table(
        ["Size", "k", "Churn", "Mean", "RV"],
        [
            [row["size_class"], row["k"], row["churn"], row["mean"], row["rv"]]
            for row in rows
        ],
    )


# ----------------------------------------------------------------------
# Figures 2–9 and 11–14 — connectivity over time
# ----------------------------------------------------------------------
def figure_series(results: Mapping[object, ExperimentResult]) -> Dict[str, List[float]]:
    """Merge several runs into the multi-curve series of one figure.

    ``results`` maps a curve key (e.g. the bucket size, or ``(loss, s)``) to
    its run.  The returned mapping contains ``"Avg (<key>)"`` and
    ``"Min (<key>)"`` series per curve plus ``"Network size"`` taken from
    the first run.  All runs of one figure share snapshot times.
    """
    series: Dict[str, List[float]] = {}
    network_size: List[float] = []
    for key, result in results.items():
        label = _curve_label(key)
        series[f"Avg ({label})"] = [float(v) for v in result.series.average_series()]
        series[f"Min ({label})"] = [float(v) for v in result.series.minimum_series()]
        if not network_size:
            network_size = [float(v) for v in result.series.network_size_series()]
    series["Network size"] = network_size
    return series


def figure_times(results: Mapping[object, ExperimentResult]) -> List[float]:
    """Return the common snapshot times of a figure's runs."""
    first = next(iter(results.values()))
    return first.series.times()


def format_figure(results: Mapping[object, ExperimentResult], title: str) -> str:
    """Render a figure's series as an aligned text table."""
    times = figure_times(results)
    series = figure_series(results)
    return f"{title}\n" + render_series_table(times, series)


def _curve_label(key: object) -> str:
    if isinstance(key, tuple):
        return ", ".join(str(part) for part in key)
    return str(key)


# ----------------------------------------------------------------------
# Figure 10 — mean minimum connectivity during churn vs bucket size
# ----------------------------------------------------------------------
def figure10_rows(
    results: Mapping[Tuple[str, int, int], ExperimentResult],
) -> List[Dict[str, object]]:
    """Rows behind Figure 10.

    ``results`` maps ``(churn, alpha, k)`` to a run of the corresponding
    scenario; each row reports the mean minimum connectivity during churn.
    """
    rows = []
    for (churn, alpha, k), result in sorted(results.items()):
        rows.append(
            {
                "churn": churn,
                "alpha": alpha,
                "k": k,
                "mean_min_connectivity": round(result.churn_mean_minimum(), 2),
            }
        )
    return rows


def format_figure10(
    results: Mapping[Tuple[str, int, int], ExperimentResult], title: str
) -> str:
    """Render Figure 10's data as text."""
    rows = figure10_rows(results)
    return f"{title}\n" + format_table(
        ["Churn", "alpha", "k", "Mean min connectivity"],
        [
            [row["churn"], row["alpha"], row["k"], row["mean_min_connectivity"]]
            for row in rows
        ],
    )


# ----------------------------------------------------------------------
# Generic scenario summaries
# ----------------------------------------------------------------------
def summary_rows(results: Iterable[ExperimentResult]) -> List[Dict[str, object]]:
    """One-line summary per run (used by the CLI)."""
    return [result.summary() for result in results]


def format_summaries(results: Iterable[ExperimentResult]) -> str:
    """Render run summaries as text."""
    rows = summary_rows(results)
    headers = [
        "scenario", "size_class", "k", "alpha", "churn", "loss", "staleness",
        "stabilized_min", "churn_mean_min", "churn_rv_min", "final_network_size",
    ]
    return format_table(
        headers,
        [[row[h] for h in headers] for row in rows],
    )
