"""Figure 13 — Simulation K: message loss with churn 1/1, s ∈ {1, 5}.

Paper observations reproduced: churn visibly reduces the connectivity gain
from message loss compared to Simulation J (same loss levels, no churn); the
s=5 damping keeps the connectivity near k.
"""

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import get_scenario

LOSS_LEVELS = ("low", "medium", "high")


def test_figure13_loss_with_churn_1_1(scenario_cache, output_dir):
    base = get_scenario("K")
    results = {}
    for loss in LOSS_LEVELS:
        for s in (1, 5):
            scenario = base.with_overrides(loss=loss, staleness_limit=s)
            results[(loss, s)] = scenario_cache.run(scenario)

    for s in (1, 5):
        panel = {loss: results[(loss, s)] for loss in LOSS_LEVELS}
        content = format_figure(
            panel,
            f"Figure 13{'a' if s == 1 else 'b'} (reproduced): Simulation K, large "
            f"network, message loss, churn 1/1, k=20, s={s}",
        )
        write_artefact(output_dir, f"figure13_loss_churn_1_1_s{s}.txt", content)

    # --- qualitative shape assertions -------------------------------------
    # Churn reduces the positive effect of loss: for the same loss level and
    # s=1, the average connectivity during the observation window is no
    # higher than in the churn-free Simulation J.
    j_base = get_scenario("J")
    for loss in LOSS_LEVELS:
        with_churn = results[(loss, 1)].churn_mean_average()
        without_churn = scenario_cache.run(
            j_base.with_overrides(loss=loss, staleness_limit=1)
        ).churn_mean_average()
        assert with_churn <= without_churn * 1.1, loss

    # The 1/1 churn keeps the network size constant.
    sizes = results[("medium", 1)].series.network_size_series()
    assert sizes[-1] == max(sizes)

    # s=5 damps the loss effect also under churn: the paper's claim is that
    # the greater staleness limit "limits the minimum connectivity to about k
    # for all loss scenarios" (Section 5.8.2).  The average connectivity is
    # not a reliable discriminator here because the s=1 runs include the
    # transiently unconnected newcomers that also drag their average down.
    for loss in LOSS_LEVELS:
        damped = results[(loss, 5)]
        churn_min = damped.series.window(
            damped.phases.stabilization_end
        ).minimum_series()
        assert max(churn_min) <= damped.scenario.bucket_size * 1.6, loss
