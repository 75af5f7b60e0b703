"""Ablation — max-flow algorithm choice.

The max-flow solver is a substitution (pure-Python push-relabel instead of
the C HIPR binary) and an internal design choice (Dinic is the default
engine of the connectivity search because it supports cutoffs).  This ablation runs all three solvers on the same snapshot's
Even-transformed connectivity graph and checks they agree.  Their relative
speed is not measured here: the repository times itself in ``bench/`` only.
"""

import pytest

from benchmarks.conftest import write_artefact
from repro.analysis.figures import format_table
from repro.core.vertex_connectivity import lowest_in_degree_vertices, lowest_out_degree_vertices
from repro.experiments.scenarios import get_scenario
from repro.runtime.pairflow import PairFlowEngine

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
    pairs = [
        (source, target)
        for source in sources
        for target in targets
        if target != source and not snapshot_graph.has_edge(source, target)
    ]

    outcome = PairFlowEngine(snapshot_graph, algorithm=algorithm).evaluate(pairs)

    # Every solver must find the same connectivity, pair by pair, as the
    # default engine.
    reference = PairFlowEngine(snapshot_graph, algorithm="dinic").evaluate(pairs)
    assert outcome.values == reference.values

    content = format_table(
        ["algorithm", "sampled min connectivity", "pairs evaluated"],
        [[algorithm, outcome.minimum, outcome.pairs_evaluated]],
    )
    write_artefact(output_dir, f"ablation_maxflow_{algorithm}.txt",
                   f"Max-flow algorithm ablation ({algorithm})\n{content}")
