"""Unit tests for the max-flow solvers (all three algorithms)."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    bidirectional_cycle,
    complete_graph,
    figure1_example_graph,
)
from repro.graph.maxflow import (
    SOLVERS,
    dinic_max_flow,
    edmonds_karp_max_flow,
    max_flow,
    push_relabel_max_flow,
)
from repro.graph.maxflow.residual import ResidualNetwork

ALGORITHMS = sorted(SOLVERS)


def classic_flow_network():
    """The CLRS example network with max flow 23 from s to t."""
    graph = DiGraph()
    edges = [
        ("s", "v1", 16), ("s", "v2", 13), ("v1", "v3", 12), ("v2", "v1", 4),
        ("v2", "v4", 14), ("v3", "v2", 9), ("v3", "t", 20), ("v4", "v3", 7),
        ("v4", "t", 4),
    ]
    for u, v, c in edges:
        graph.add_edge(u, v, capacity=c)
    return graph


class TestKnownNetworks:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_classic_clrs_network(self, algorithm):
        result = max_flow(classic_flow_network(), "s", "t", algorithm=algorithm)
        assert result.as_int() == 23
        assert result.algorithm == algorithm

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_edge(self, algorithm):
        graph = DiGraph()
        graph.add_edge("a", "b", capacity=7)
        result = max_flow(graph, "a", "b", algorithm=algorithm)
        assert result.value == pytest.approx(7.0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_disconnected_pair_has_zero_flow(self, algorithm):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_edge("c", "d")
        result = max_flow(graph, "a", "d", algorithm=algorithm)
        assert result.value == 0.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_diamond_unit_capacities(self, algorithm, diamond_graph):
        result = max_flow(diamond_graph, "s", "t", algorithm=algorithm)
        assert result.as_int() == 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_figure1_edge_flow_is_three(self, algorithm):
        """The paper's Figure 1a: the edge max flow from a to i is 3."""
        result = max_flow(figure1_example_graph(), "a", "i", algorithm=algorithm)
        assert result.as_int() == 3

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_complete_graph_flow(self, algorithm):
        graph = complete_graph(6)
        result = max_flow(graph, 0, 5, algorithm=algorithm)
        # Direct edge (1) plus 4 two-hop paths.
        assert result.as_int() == 5

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bidirectional_cycle_flow(self, algorithm):
        graph = bidirectional_cycle(8)
        result = max_flow(graph, 0, 4, algorithm=algorithm)
        assert result.as_int() == 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_serial_bottleneck(self, algorithm):
        graph = DiGraph()
        graph.add_edge("a", "b", capacity=5)
        graph.add_edge("b", "c", capacity=3)
        graph.add_edge("c", "d", capacity=4)
        result = max_flow(graph, "a", "d", algorithm=algorithm)
        assert result.value == pytest.approx(3.0)


class TestInterface:
    def test_unknown_algorithm_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="unknown max-flow algorithm"):
            max_flow(diamond_graph, "s", "t", algorithm="magic")

    def test_same_source_and_target_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="distinct"):
            max_flow(diamond_graph, "s", "s")

    def test_all_solvers_registered(self):
        assert set(SOLVERS) == {"push_relabel", "dinic", "edmonds_karp"}

    def test_direct_functions_match_dispatch(self, diamond_graph):
        assert push_relabel_max_flow(diamond_graph, "s", "t").as_int() == 2
        assert dinic_max_flow(diamond_graph, "s", "t").as_int() == 2
        assert edmonds_karp_max_flow(diamond_graph, "s", "t").as_int() == 2

    def test_dinic_cutoff_stops_early(self):
        graph = complete_graph(8)
        result = dinic_max_flow(graph, 0, 7, cutoff=3.0)
        assert 3 <= result.as_int() <= 7

    def test_edmonds_karp_reports_augmentations(self, diamond_graph):
        result = edmonds_karp_max_flow(diamond_graph, "s", "t")
        assert result.augmentations == 2

    def test_dinic_reports_augmentations(self, diamond_graph):
        result = dinic_max_flow(diamond_graph, "s", "t")
        assert result.augmentations == 2
        assert dinic_max_flow(diamond_graph, "s", "t", cutoff=1.0).augmentations == 1


class TestResidualNetwork:
    def test_arc_pairing(self, diamond_graph):
        network = ResidualNetwork(diamond_graph)
        assert network.arc_count() == 2 * diamond_graph.number_of_edges()
        # Forward arcs carry the capacity, reverse arcs start at zero.
        assert network.caps[0] == 1.0
        assert network.caps[1] == 0.0

    def test_reset_restores_capacities(self, diamond_graph):
        network = ResidualNetwork(diamond_graph)
        from repro.graph.maxflow.dinic import dinic_on_network

        source = network.index_of("s")
        sink = network.index_of("t")
        assert dinic_on_network(network, source, sink) == pytest.approx(2.0)
        # Capacities were consumed; reset brings them back.
        network.reset()
        assert dinic_on_network(network, source, sink) == pytest.approx(2.0)

    def test_min_cut_reachable_set(self):
        graph = classic_flow_network()
        network = ResidualNetwork(graph)
        from repro.graph.maxflow.dinic import dinic_on_network

        value = dinic_on_network(
            network, network.index_of("s"), network.index_of("t")
        )
        reachable = {
            network.vertex_of(i)
            for i in network.min_cut_reachable(network.index_of("s"))
        }
        assert "s" in reachable and "t" not in reachable
        # Capacity across the cut equals the max flow (max-flow min-cut).
        cut_capacity = sum(
            capacity
            for u, v, capacity in graph.edges()
            if u in reachable and v not in reachable
        )
        assert cut_capacity == pytest.approx(value)

    def test_index_of_unknown_vertex(self, diamond_graph):
        from repro.graph.errors import VertexNotFoundError

        network = ResidualNetwork(diamond_graph)
        with pytest.raises(VertexNotFoundError):
            network.index_of("missing")
