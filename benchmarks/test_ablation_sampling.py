"""Ablation — source/target sampling fraction of the connectivity search.

The paper reduces the number of max-flow computations by using only the
``c * n`` lowest-out-degree vertices as flow sources (Section 5.2,
c = 2 %).  Our analyzer additionally samples targets (lowest in-degree).
This ablation compares the sampled minimum against the exact minimum on a
moderate snapshot and records the min-pass flows of each, checking the
paper's claim that the sampling recovers the true graph connectivity with
a fraction of the flows.
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.analysis.figures import format_table
from repro.core.analyzer import ConnectivityAnalyzer
from repro.experiments.scenarios import get_scenario


@pytest.fixture(scope="module")
def small_snapshot(scenario_cache):
    """Final snapshot of the small-network Simulation E with k=10."""
    result = scenario_cache.run(get_scenario("E").with_overrides(bucket_size=10))
    return result.snapshots[-1]


@pytest.mark.parametrize("mode, source_fraction", [("exact", None), ("sampled", 0.06)])
def test_ablation_sampling_fraction(mode, source_fraction, small_snapshot,
                                    output_dir):
    analyzer = ConnectivityAnalyzer(
        source_fraction=source_fraction, target_fraction=0.06, average_pairs=0, seed=1
    )
    report = analyzer.analyze_snapshot(small_snapshot.routing_tables)

    exact_analyzer = ConnectivityAnalyzer(source_fraction=None, average_pairs=0)
    exact_report = exact_analyzer.analyze_snapshot(small_snapshot.routing_tables)

    # The sampled minimum matches the exact minimum on this snapshot
    # (the paper verified the same for c = 2 % on 20 graphs).
    assert report.minimum == exact_report.minimum

    content = format_table(
        ["mode", "minimum", "min-pass flows", "exact minimum"],
        [[mode, report.minimum, report.min_pairs_evaluated, exact_report.minimum]],
    )
    write_artefact(output_dir, f"ablation_sampling_{mode}.txt",
                   f"Connectivity sampling ablation ({mode})\n{content}")
