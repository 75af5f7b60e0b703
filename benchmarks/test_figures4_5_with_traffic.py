"""Figures 4 and 5 — Simulations C & D: churn 0/1, with data traffic.

Paper observations reproduced here: the setup phase looks like Simulations
A & B, but data traffic fixes the weakly-connected nodes during
stabilisation for *all* bucket sizes, pushes connectivity to ``k`` or above
earlier, and amplifies the connectivity increase during the 0/1 churn phase.
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import PAPER_BUCKET_SIZES, get_scenario


@pytest.mark.parametrize(
    "figure, scenario_name, no_traffic_name",
    [("figure4", "C", "A"), ("figure5", "D", "B")],
)
def test_figures_4_5_with_traffic(figure, scenario_name, no_traffic_name,
                                  scenario_cache, output_dir):
    base = get_scenario(scenario_name)
    results = {
        k: scenario_cache.run(base.with_overrides(bucket_size=k))
        for k in PAPER_BUCKET_SIZES
    }

    content = format_figure(
        results,
        f"{figure.capitalize()} (reproduced): Simulation {scenario_name}, "
        f"{base.size_class} network, churn 0/1, with data traffic",
    )
    write_artefact(output_dir, f"{figure}_simulation_{scenario_name}.txt", content)

    # --- qualitative shape assertions -------------------------------------
    # With traffic, every bucket size is connected after stabilisation
    # (the paper: "this issue is resolved ... for all four k values").
    stabilized = {k: results[k].stabilized_minimum() for k in PAPER_BUCKET_SIZES}
    for k in PAPER_BUCKET_SIZES:
        assert stabilized[k] > 0, f"k={k} still disconnected after stabilisation"
    # Connectivity ordered by bucket size.
    assert stabilized[30] >= stabilized[10] >= stabilized[5]

    # Traffic improves connectivity compared to the no-traffic twin (same
    # size class, same churn).  The paper's end-of-run observation is the
    # robust form of this at bench scale: "with 10 nodes left in the network,
    # the network is now fully connected for each bucket size except the
    # smallest one" — whereas without traffic the small bucket sizes never
    # reach full connectivity.  (The stabilised minimum itself is not a
    # reliable discriminator at bench scale: the no-traffic runs fill their
    # tables via bucket refreshes alone, which in a network this small is
    # already enough to reach k; see EXPERIMENTS.md.)
    for k in (10, 20, 30):
        with_traffic_final = results[k].series.final_sample()
        full = with_traffic_final.network_size - 1
        assert with_traffic_final.minimum >= full, (
            f"k={k}: with traffic the surviving network should end fully connected"
        )
    no_traffic_small_k = scenario_cache.run(
        get_scenario(no_traffic_name).with_overrides(bucket_size=5)
    ).series.final_sample()
    with_traffic_small_k = results[5].series.final_sample()
    # The final sample observes the min_remaining-node residual network — a
    # single draw whose minimum moves by one connection between profiles, so
    # below bench scale the comparison carries a one-connection tolerance.
    slack = 0 if scenario_cache.profile.name == "bench" else 1
    assert with_traffic_small_k.minimum >= no_traffic_small_k.minimum - slack
