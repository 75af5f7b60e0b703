"""Ablation — max-flow algorithm choice.

DESIGN.md calls out the max-flow solver as a substitution (pure-Python
push-relabel instead of the C HIPR binary) and as an internal design choice
(Dinic is the default engine of the connectivity search because it supports
cutoffs).  This ablation runs all three solvers on the same snapshot's
Even-transformed connectivity graph and checks they agree.  Their relative
speed is not measured here: the repository times itself in ``bench/`` only.
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.analysis.figures import format_table
from repro.core.vertex_connectivity import PairFlowEvaluator, lowest_in_degree_vertices, lowest_out_degree_vertices
from repro.experiments.scenarios import get_scenario

ALGORITHMS = ("dinic", "push_relabel", "edmonds_karp")


@pytest.fixture(scope="module")
def snapshot_graph(scenario_cache):
    """Connectivity graph of the final snapshot of Simulation E (k=20)."""
    result = scenario_cache.run(get_scenario("E").with_overrides(bucket_size=20))
    return result.snapshots[-1].to_connectivity_graph()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ablation_maxflow_algorithm(algorithm, snapshot_graph, output_dir):
    sources = lowest_out_degree_vertices(snapshot_graph, 3)
    targets = lowest_in_degree_vertices(snapshot_graph, 8)

    evaluator = PairFlowEvaluator(snapshot_graph, algorithm=algorithm)
    minimum, pairs = evaluator.minimum_over(sources, targets, use_cutoff=False)

    # All solvers must find the same sampled minimum as the default engine.
    reference_evaluator = PairFlowEvaluator(snapshot_graph, algorithm="dinic")
    reference, _ = reference_evaluator.minimum_over(sources, targets, use_cutoff=False)
    assert minimum == reference

    content = format_table(
        ["algorithm", "sampled min connectivity", "pairs evaluated"],
        [[algorithm, minimum, pairs]],
    )
    write_artefact(output_dir, f"ablation_maxflow_{algorithm}.txt",
                   f"Max-flow algorithm ablation ({algorithm})\n{content}")
