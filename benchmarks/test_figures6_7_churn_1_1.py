"""Figures 6 and 7 — Simulations E & F: churn 1/1, with data traffic.

Paper observations reproduced here: the setup/stabilisation phases behave
like Simulations C & D; during steady 1/1 churn the minimum connectivity
for the larger bucket sizes oscillates around ``k`` while it drops
significantly for small ``k`` (down to 0 for k=5 in the large network).
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import PAPER_BUCKET_SIZES, get_scenario


@pytest.mark.parametrize(
    "figure, scenario_name", [("figure6", "E"), ("figure7", "F")]
)
def test_figures_6_7_churn_1_1(figure, scenario_name,
                               scenario_cache, output_dir):
    base = get_scenario(scenario_name)
    results = {
        k: scenario_cache.run(base.with_overrides(bucket_size=k))
        for k in PAPER_BUCKET_SIZES
    }

    content = format_figure(
        results,
        f"{figure.capitalize()} (reproduced): Simulation {scenario_name}, "
        f"{base.size_class} network, churn 1/1, with data traffic",
    )
    write_artefact(output_dir, f"{figure}_simulation_{scenario_name}.txt", content)

    # --- qualitative shape assertions -------------------------------------
    means = {k: results[k].churn_mean_minimum() for k in PAPER_BUCKET_SIZES}
    # Connectivity during churn tracks the bucket size.
    assert means[30] >= means[10] >= means[5]
    assert means[20] > means[5]
    # The 1/1 churn keeps the network size constant.
    for k in PAPER_BUCKET_SIZES:
        sizes = results[k].series.network_size_series()
        assert sizes[-1] == max(sizes)
    # For adequate bucket sizes the minimum oscillates around k rather than
    # collapsing: its churn-phase mean stays within a factor ~2 of k.
    assert means[20] >= 10
    # Small k suffers: the churn-phase minimum drops below k at some point.
    small_k_min = min(
        results[5].series.window(results[5].phases.stabilization_end).minimum_series()
    )
    assert small_k_min < 5
