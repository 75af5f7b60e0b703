"""Figure 14 — Simulation L: message loss with churn 10/10, s ∈ {1, 5}.

Paper observations reproduced: the strong churn counters the positive effect
of message loss even further than in Simulation K — now also the average
connectivity is reduced — and with the added damping of s=5 the minimum
connectivity stays below (or around) k throughout the churn phase.
"""

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import get_scenario

LOSS_LEVELS = ("low", "medium", "high")


def test_figure14_loss_with_churn_10_10(scenario_cache, output_dir):
    base = get_scenario("L")
    results = {}
    for loss in LOSS_LEVELS:
        for s in (1, 5):
            scenario = base.with_overrides(loss=loss, staleness_limit=s)
            results[(loss, s)] = scenario_cache.run(scenario)

    for s in (1, 5):
        panel = {loss: results[(loss, s)] for loss in LOSS_LEVELS}
        content = format_figure(
            panel,
            f"Figure 14{'a' if s == 1 else 'b'} (reproduced): Simulation L, large "
            f"network, message loss, churn 10/10, k=20, s={s}",
        )
        write_artefact(output_dir, f"figure14_loss_churn_10_10_s{s}.txt", content)

    # --- qualitative shape assertions -------------------------------------
    # Stronger churn (10/10) counters the loss-driven connectivity gain even
    # more than 1/1 churn: the average connectivity is no higher than in the
    # corresponding Simulation K run.
    k_base = get_scenario("K")
    for loss in LOSS_LEVELS:
        here = results[(loss, 1)].churn_mean_average()
        with_weaker_churn = scenario_cache.run(
            k_base.with_overrides(loss=loss, staleness_limit=1)
        ).churn_mean_average()
        assert here <= with_weaker_churn * 1.15, loss

    # With the added damping of s=5 the minimum connectivity stays at or
    # below roughly k during the churn phase.
    for loss in LOSS_LEVELS:
        result = results[(loss, 5)]
        churn_min = result.series.window(
            result.phases.stabilization_end
        ).minimum_series()
        assert max(churn_min) <= result.scenario.bucket_size * 1.6, loss
