"""Figure 11 — Simulation I: staleness limit s ∈ {1, 5} without message loss.

Paper observations reproduced: with 1/1 churn the two staleness limits are
essentially indistinguishable; with 10/10 churn the *average* connectivity
for s=5 falls below that of s=1 once churn sets in (stale entries linger in
the size-limited routing tables and keep new contacts out), while the
minimum connectivity is much less affected.
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.experiments.report import format_figure
from repro.experiments.scenarios import PAPER_STALENESS_VALUES, get_scenario


@pytest.mark.parametrize("panel, churn", [("figure11a", "1/1"), ("figure11b", "10/10")])
def test_figure11_staleness_without_loss(panel, churn,
                                         scenario_cache, output_dir):
    base = get_scenario("I").with_overrides(churn=churn)
    results = {
        s: scenario_cache.run(base.with_overrides(staleness_limit=s))
        for s in PAPER_STALENESS_VALUES
    }

    content = format_figure(
        results,
        f"{panel} (reproduced): Simulation I, large network, churn {churn}, "
        "no message loss, k=20, s in {1, 5}",
    )
    write_artefact(output_dir, f"{panel}_staleness_churn_{churn.replace('/', '_')}.txt", content)

    mean_avg = {s: results[s].churn_mean_average() for s in PAPER_STALENESS_VALUES}
    mean_min = {s: results[s].churn_mean_minimum() for s in PAPER_STALENESS_VALUES}

    if churn == "10/10":
        # Stronger churn: the greater staleness limit drags the average
        # connectivity down relative to s=1.
        assert mean_avg[5] <= mean_avg[1] * 1.05
    else:
        # 1/1 churn: no significant difference between the limits
        # (within 35 % of each other at bench scale).
        ratio = mean_avg[5] / max(mean_avg[1], 1e-9)
        assert 0.65 <= ratio <= 1.35

    # The minimum connectivity stays in the same ballpark for both limits
    # (the paper notes it is surprisingly unaffected).
    assert abs(mean_min[1] - mean_min[5]) <= max(mean_min[1], mean_min[5]) * 0.6 + 2
