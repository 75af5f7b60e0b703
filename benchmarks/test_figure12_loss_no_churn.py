"""Figure 12 — Simulation J: message loss without churn, s ∈ {1, 5}.

Paper observations reproduced: with s=1, message loss *increases* the
network connectivity well above the bucket size k (failed round-trips evict
contacts and let the sub-optimal post-setup structure reorganise), and more
loss gives more connectivity; with s=5 the effect is strongly damped — the
connectivity stays near k and rises far more slowly.
"""

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import get_scenario

LOSS_LEVELS = ("low", "medium", "high")


def test_figure12_loss_without_churn(scenario_cache, output_dir):
    base = get_scenario("J")
    results = {}
    for loss in LOSS_LEVELS:
        for s in (1, 5):
            scenario = base.with_overrides(loss=loss, staleness_limit=s)
            results[(loss, s)] = scenario_cache.run(scenario)

    for s in (1, 5):
        panel = {loss: results[(loss, s)] for loss in LOSS_LEVELS}
        content = format_figure(
            panel,
            f"Figure 12{'a' if s == 1 else 'b'} (reproduced): Simulation J, large "
            f"network, message loss, no churn, k=20, s={s}",
        )
        write_artefact(output_dir, f"figure12_loss_no_churn_s{s}.txt", content)

    # --- qualitative shape assertions -------------------------------------
    mean_avg = {key: result.churn_mean_average() for key, result in results.items()}
    no_loss = scenario_cache.run(base.with_overrides(loss="none", staleness_limit=1))

    # With s=1, message loss lifts the average connectivity above the
    # loss-free baseline for the stronger loss levels.
    assert mean_avg[("high", 1)] >= no_loss.churn_mean_average() * 0.95
    # More loss does not reduce connectivity with s=1 (10 % noise tolerance
    # at bench scale).  At smoke scale the low-loss tables already sit near
    # the saturation ceiling (a node can know almost the whole network),
    # which compresses the headroom the stronger loss levels can add, so the
    # tolerance widens to 20 %.
    factor = 0.9 if scenario_cache.profile.name == "bench" else 0.8
    assert mean_avg[("high", 1)] >= mean_avg[("low", 1)] * factor

    # The damping effect of s=5: for each loss level the average
    # connectivity with s=5 is no higher than with s=1.
    for loss in LOSS_LEVELS:
        assert mean_avg[(loss, 5)] <= mean_avg[(loss, 1)] * 1.1

    # Without churn the network size stays constant.
    sizes = results[("high", 1)].series.network_size_series()
    assert sizes[-1] == max(sizes)
