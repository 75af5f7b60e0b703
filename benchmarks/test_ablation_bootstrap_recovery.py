"""Ablation — bootstrap fallback under message loss (modeling decision).

Deployed Kademlia nodes keep their configured bootstrap address outside the
routing table and keep retrying it until they have reached the network
once.  Without that fallback, a join whose very first round-trip is lost
(probability 5–50 % in the paper's loss scenarios, Table 1) leaves an
orphan; newcomers that bootstrap *from* the orphan form an island, and the
simulated network permanently partitions — the paper's Simulation J would
then report zero minimum connectivity forever instead of the strong
increase shown in Figure 12a.

This ablation documents that modeling decision by running the same
Simulation J configuration with the fallback disabled and enabled.
"""

from benchmarks.conftest import write_artefact
from repro.experiments.scenarios import get_scenario


def test_ablation_bootstrap_recovery(scenario_cache, output_dir):
    base = get_scenario("J").with_overrides(loss="medium", staleness_limit=1)
    with_fallback = scenario_cache.run(base)
    without_fallback = scenario_cache.run(base.with_overrides(bootstrap_reseed=False))

    lines = [
        f"{'configuration':<22} {'churn mean min':>15} {'churn mean avg':>15} "
        f"{'final min':>10}",
    ]
    lines.append("-" * len(lines[0]))
    for name, result in (
        ("bootstrap fallback on", with_fallback),
        ("bootstrap fallback off", without_fallback),
    ):
        final = result.series.final_sample()
        lines.append(
            f"{name:<22} {result.churn_mean_minimum():>15.2f} "
            f"{result.churn_mean_average():>15.2f} {final.minimum:>10}"
        )
    write_artefact(output_dir, "ablation_bootstrap_recovery.txt", "\n".join(lines))

    # With the fallback the loss scenario reaches a minimum connectivity
    # above the bucket size (Figure 12a's shape); without it the network
    # stays partitioned and the minimum never recovers.
    assert with_fallback.churn_mean_minimum() > without_fallback.churn_mean_minimum()
    assert without_fallback.churn_mean_minimum() <= base.bucket_size
