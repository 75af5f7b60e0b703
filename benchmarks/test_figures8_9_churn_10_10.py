"""Figures 8 and 9 — Simulations G & H: churn 10/10, with data traffic.

Paper observations reproduced here: compared to 1/1 churn the stronger
churn lowers the minimum-connectivity level for every bucket size and
increases its variability relative to the mean (the RV comparison of
Table 2 picks the same effect up numerically).
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import PAPER_BUCKET_SIZES, get_scenario


@pytest.mark.parametrize(
    "figure, scenario_name, sibling_1_1",
    [("figure8", "G", "E"), ("figure9", "H", "F")],
)
def test_figures_8_9_churn_10_10(figure, scenario_name, sibling_1_1,
                                 scenario_cache, output_dir):
    base = get_scenario(scenario_name)
    results = {
        k: scenario_cache.run(base.with_overrides(bucket_size=k))
        for k in PAPER_BUCKET_SIZES
    }

    content = format_figure(
        results,
        f"{figure.capitalize()} (reproduced): Simulation {scenario_name}, "
        f"{base.size_class} network, churn 10/10, with data traffic",
    )
    write_artefact(output_dir, f"{figure}_simulation_{scenario_name}.txt", content)

    # --- qualitative shape assertions -------------------------------------
    means = {k: results[k].churn_mean_minimum() for k in PAPER_BUCKET_SIZES}
    assert means[30] >= means[10] >= means[5]
    # Network size stays constant under 10/10 churn.
    sizes = results[20].series.network_size_series()
    assert sizes[-1] == max(sizes)

    # Stronger churn does not improve the minimum connectivity compared to
    # the 1/1 sibling for the default bucket size (paper: level drops),
    # allowing a small tolerance for run-to-run noise at bench scale.
    sibling = scenario_cache.run(
        get_scenario(sibling_1_1).with_overrides(bucket_size=20)
    )
    assert means[20] <= sibling.churn_mean_minimum() * 1.15
