"""Ablation — connectivity hardening mechanisms (paper future work).

The paper's conclusion asks for mechanisms that deliver the connectivity
gains observed under message loss without the loss itself, and for a
connectivity control knob independent of the bucket size ``k``.  This
ablation compares plain Kademlia against the two mechanisms implemented in
``repro.extensions`` on the same churn scenario:

* contact rotation (``rotation_fraction`` > 0), and
* supplemental links (``extra_links`` > 0).

Runs use the ``tiny`` profile (the point is the relative ordering, not the
absolute values) with a deliberately small ``k`` so the headroom above
``k`` is visible.
"""

from benchmarks.conftest import write_artefact
from repro.extensions.hardening import HardeningConfig
from repro.extensions.evaluation import hardening_study, hardening_summary
from repro.experiments.scenarios import get_scenario

CONFIGS = {
    "baseline": HardeningConfig(),
    "rotation": HardeningConfig(rotation_fraction=0.5, rotation_interval_minutes=4.0),
    "extra-links": HardeningConfig(supplemental_links=8,
                                   supplemental_interval_minutes=4.0),
    "combined": HardeningConfig(rotation_fraction=0.25, supplemental_links=8,
                                rotation_interval_minutes=4.0,
                                supplemental_interval_minutes=4.0),
}


def test_ablation_connectivity_hardening(output_dir):
    scenario = get_scenario("F").with_overrides(bucket_size=5)
    results = hardening_study(scenario, CONFIGS, profile="tiny", seed=7)
    rows = hardening_summary(results)

    header = f"{'configuration':<14} {'stab. min':>9} {'churn mean min':>15} {'churn mean avg':>15}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['configuration']:<14} {row['stabilized_min']:>9} "
            f"{row['churn_mean_min']:>15.2f} {row['churn_mean_avg']:>15.2f}"
        )
    write_artefact(output_dir, "ablation_hardening.txt", "\n".join(lines))

    by_name = {row["configuration"]: row for row in rows}
    # The supplemental-links mechanism lifts the minimum connectivity above
    # the plain-Kademlia baseline (its whole purpose).
    assert (
        by_name["extra-links"]["churn_mean_min"]
        >= by_name["baseline"]["churn_mean_min"]
    )
    # Rotation must not collapse connectivity below the baseline by more
    # than noise; it trades steady membership for reorganisation headroom.
    assert (
        by_name["rotation"]["churn_mean_min"]
        >= by_name["baseline"]["churn_mean_min"] * 0.7
    )
    # No mechanism loses nodes.
    assert all(row["final_network_size"] > 0 for row in rows)
