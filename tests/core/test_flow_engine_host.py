"""The measurement skeleton both connectivity hosts share.

:class:`FlowEngineHost` owns ``analyze_graph`` / ``analyze_snapshot``: the
shortcuts, exhaustive recovery and the report fields common to both
report classes.  The exact analyzer and the estimator add only their
sampled passes, and their single-value tuning parameters are module
constants, not constructor knobs.
"""

import pytest

from repro.core.analyzer import ConnectivityAnalyzer, FlowEngineHost
from repro.core.estimation import ConnectivityEstimator
from repro.graph.digraph import DiGraph
from repro.graph.generators import circulant_graph, complete_graph
from repro.runtime.pairflow import PairFlowEngine

#: The report fields both report classes carry under the same name, less
#: the clock and ``min_pairs_evaluated`` (exhaustive recovery serves both
#: passes of the exact analyzer, so it counts its pairs twice).
COMMON_FIELDS = (
    "resilience",
    "vertex_count",
    "edge_count",
    "disconnected_count",
    "strongly_connected",
    "symmetry_ratio",
    "avg_pairs_evaluated",
)


def one_vertex() -> DiGraph:
    graph = DiGraph()
    graph.add_vertices([0])
    return graph


def two_cycles_and_an_isolated_vertex() -> DiGraph:
    graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    graph.add_vertices([7])
    return graph


def pair_flow_engine(**knob) -> PairFlowEngine:
    return PairFlowEngine(circulant_graph(6, [1]), **knob)


class TestNoSingleValueKnobs:
    @pytest.mark.parametrize(
        "build, name, value",
        [
            pytest.param(build, name, value, id=f"{build.__name__}-{name}")
            for build, name, value in [
                (ConnectivityAnalyzer, "min_sources", 4),
                (ConnectivityAnalyzer, "min_targets", 8),
                (ConnectivityEstimator, "strata", 4),
                (ConnectivityEstimator, "min_fraction", 0.02),
                (ConnectivityEstimator, "min_candidates", 8),
                (pair_flow_engine, "shard_size", 24),
                (pair_flow_engine, "wave_width", 8),
            ]
        ],
    )
    def test_removed_parameters_are_rejected(self, build, name, value):
        with pytest.raises(TypeError):
            build(**{name: value})


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(DiGraph(), id="empty"),
        pytest.param(one_vertex(), id="one-vertex"),
        pytest.param(complete_graph(4), id="K4"),
        pytest.param(circulant_graph(8, [1, 2]), id="budget-covers-every-pair"),
        pytest.param(two_cycles_and_an_isolated_vertex(), id="not-strongly-connected"),
    ],
)
def test_both_hosts_share_the_skeleton(graph):
    # Exact mode and a budget above every pair: both hosts take the
    # skeleton's shortcut or its exhaustive recovery, never a sampled pass.
    hosts = [
        ConnectivityAnalyzer(source_fraction=None, seed=1),
        ConnectivityEstimator(sample_pairs=10_000, seed=1),
    ]
    exact, estimate = (host.analyze_graph(graph) for host in hosts)
    for host in hosts:
        assert type(host).analyze_graph is FlowEngineHost.analyze_graph
        assert type(host).analyze_snapshot is FlowEngineHost.analyze_snapshot
    for name in COMMON_FIELDS:
        assert getattr(exact, name) == getattr(estimate, name), name
    assert exact.min_connectivity == estimate.min_connectivity
    assert exact.avg_connectivity == estimate.avg_connectivity
    assert exact.exact and estimate.min_is_exact
    assert estimate.ci_width == 0.0
    assert estimate.min_pairs_evaluated == 0
    assert exact.min_pairs_evaluated == exact.avg_pairs_evaluated
