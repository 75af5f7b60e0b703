"""Section 5.7 — bit-length b: 160 vs 80.

The paper reports (in text, without a figure) that repeating Simulations C
and D with b=80 instead of b=160 "showed no significant difference ... with
regard to connectivity".  This benchmark reruns the small-network variant
(Simulation C, k=20) with both bit lengths and asserts the stabilised and
churn-phase connectivity levels agree within a small tolerance.
"""

from benchmarks.conftest import write_artefact
from repro.analysis.figures import format_table
from repro.experiments.scenarios import get_scenario


def test_section5_7_bit_length(scenario_cache, output_dir):
    base = get_scenario("C").with_overrides(bucket_size=20)
    results = {
        b: scenario_cache.run(base.with_overrides(bit_length=b)) for b in (160, 80)
    }

    rows = []
    for b, result in results.items():
        rows.append([
            b,
            result.stabilized_minimum(),
            round(result.churn_mean_minimum(), 1),
            round(result.churn_mean_average(), 1),
        ])
    content = (
        "Section 5.7 (reproduced): identifier bit-length 160 vs 80, Simulation C, k=20\n"
        + format_table(
            ["b", "Min after stabilisation", "Mean min (churn)", "Mean avg (churn)"],
            rows,
        )
    )
    write_artefact(output_dir, "section5_7_bitlength.txt", content)

    # "No significant difference": stabilised minimum within 30 % / 5 units,
    # churn-phase mean minimum within 30 %.
    stab_160 = results[160].stabilized_minimum()
    stab_80 = results[80].stabilized_minimum()
    assert abs(stab_160 - stab_80) <= max(5, 0.3 * max(stab_160, stab_80))
    mean_160 = results[160].churn_mean_minimum()
    mean_80 = results[80].churn_mean_minimum()
    assert abs(mean_160 - mean_80) <= max(3, 0.3 * max(mean_160, mean_80))
