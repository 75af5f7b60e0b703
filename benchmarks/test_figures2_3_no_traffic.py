"""Figures 2 and 3 — Simulations A & B: churn 0/1, without data traffic.

Paper observations reproduced here:

* after the setup phase the connectivity is roughly ``k`` for the larger
  bucket sizes, while small ``k`` (5, and 10 in the large network) starts at
  or near zero because a handful of nodes are not (sufficiently) present in
  other nodes' routing tables;
* during the 0/1 churn phase the minimum connectivity first *rises* —
  leaving nodes free up k-bucket entries and let the network reconfigure —
  and finally collapses as the network shrinks away.
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import PAPER_BUCKET_SIZES, get_scenario


@pytest.mark.parametrize(
    "figure, scenario_name, size_class",
    [("figure2", "A", "small"), ("figure3", "B", "large")],
)
def test_figures_2_3_no_traffic(figure, scenario_name, size_class,
                                scenario_cache, output_dir):
    base = get_scenario(scenario_name)
    assert base.size_class == size_class
    results = {
        k: scenario_cache.run(base.with_overrides(bucket_size=k))
        for k in PAPER_BUCKET_SIZES
    }

    content = format_figure(
        results,
        f"{figure.capitalize()} (reproduced): Simulation {scenario_name}, "
        f"{size_class} network, churn 0/1, without data traffic",
    )
    write_artefact(output_dir, f"{figure}_simulation_{scenario_name}.txt", content)

    # --- qualitative shape assertions -------------------------------------
    # Larger buckets stabilise at higher connectivity, roughly ordered by k.
    stabilized = {k: results[k].stabilized_minimum() for k in PAPER_BUCKET_SIZES}
    assert stabilized[30] >= stabilized[10]
    assert stabilized[20] >= stabilized[5]
    if size_class == "small":
        # Figure 2: k = 20 and 30 are clearly connected after stabilisation.
        assert stabilized[20] >= 10
        assert stabilized[30] >= 10
    # The network shrinks away during 0/1 churn.
    for k in PAPER_BUCKET_SIZES:
        sizes = results[k].series.network_size_series()
        assert sizes[-1] < max(sizes)
    # During churn the minimum connectivity holds at (or rises above) its
    # post-stabilisation level at some point before the network dies — the
    # paper's "reconfiguration" effect.  The no-traffic runs stabilise with
    # little headroom left, so the large network carries a 10 % tolerance at
    # bench scale (see EXPERIMENTS.md) while the small network reproduces
    # the rise strictly; at the even smaller smoke scale the tolerance
    # applies to both sizes.
    churn_start = results[20].phases.stabilization_end
    churn_series = results[20].series.window(churn_start).minimum_series()
    strict = size_class == "small" and scenario_cache.profile.name == "bench"
    assert max(churn_series) >= stabilized[20] * (1.0 if strict else 0.9)
