"""Figure 10 — mean minimum connectivity during churn vs bucket size and alpha.

Reproduces both panels (10a: small network, 10b: large network) with the
three curve families of the paper: churn 1/1 with alpha=3, churn 10/10 with
alpha=3 (both reused from Simulations E–H) and churn 10/10 with alpha=5.

Paper observations asserted: connectivity grows with k; 1/1 churn gives at
least the connectivity of 10/10 churn; raising alpha to 5 under 10/10 churn
does not help and hurts the small bucket sizes.
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.experiments.report import figure10_rows, format_figure10
from repro.experiments.scenarios import PAPER_BUCKET_SIZES, get_scenario

#: The three curve families of Figure 10, per panel: (churn, alpha, base scenario).
CURVES = {
    "small": [("1/1", 3, "E"), ("10/10", 3, "G"), ("10/10", 5, "G")],
    "large": [("1/1", 3, "F"), ("10/10", 3, "H"), ("10/10", 5, "H")],
}


@pytest.mark.parametrize("panel, size_class", [("figure10a", "small"), ("figure10b", "large")])
def test_figure10_request_parallelism(panel, size_class,
                                      scenario_cache, output_dir):
    results = {}
    for churn, alpha, base_name in CURVES[size_class]:
        base = get_scenario(base_name)
        for k in PAPER_BUCKET_SIZES:
            scenario = base.with_overrides(bucket_size=k, alpha=alpha)
            results[(churn, alpha, k)] = scenario_cache.run(scenario)

    rows = figure10_rows(results)
    content = format_figure10(
        results,
        f"{panel} (reproduced): mean of the minimum connectivity during churn, "
        f"{size_class} network",
    )
    write_artefact(output_dir, f"{panel}_alpha.txt", content)

    by_key = {(row["churn"], row["alpha"], row["k"]): row["mean_min_connectivity"]
              for row in rows}

    # 1) Connectivity grows with the bucket size for every curve family.
    for churn, alpha, _base in CURVES[size_class]:
        assert by_key[(churn, alpha, 30)] >= by_key[(churn, alpha, 10)]
        assert by_key[(churn, alpha, 20)] >= by_key[(churn, alpha, 5)]

    # 2) 1/1 churn does not yield worse connectivity than 10/10 churn
    #    (paper: "scenarios with churn 1/1 show a higher connectivity").
    for k in (10, 20, 30):
        assert by_key[("1/1", 3, k)] >= by_key[("10/10", 3, k)] * 0.9

    # 3) Raising alpha from 3 to 5 under 10/10 churn does not improve the
    #    small-k connectivity (paper: "very negative impact ... for the
    #    smaller k values").
    assert by_key[("10/10", 5, 5)] <= by_key[("10/10", 3, 5)] + 1.0
