"""Tests for pairwise and global vertex connectivity."""

import random

import pytest

from repro.core.vertex_connectivity import (
    connectivity_statistics,
    global_vertex_connectivity,
    lowest_in_degree_vertices,
    lowest_out_degree_vertices,
    pairwise_vertex_connectivity,
    sample_non_adjacent_pairs,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    circulant_graph,
    complete_graph,
    directed_cycle,
    figure1_example_graph,
    random_digraph,
)
from repro.runtime.pairflow import PairFlowEngine

ALGORITHMS = ("dinic", "push_relabel", "edmonds_karp")


class TestPairwiseConnectivity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_figure1_kappa_is_one(self, algorithm):
        """Paper Figure 1: kappa(a, i) = 1 although the edge max flow is 3."""
        graph = figure1_example_graph()
        assert pairwise_vertex_connectivity(graph, "a", "i", algorithm=algorithm) == 1

    def test_bidirectional_cycle_kappa_two(self, ring10):
        assert pairwise_vertex_connectivity(ring10, 0, 5) == 2

    def test_circulant_kappa_four(self, circulant12):
        assert pairwise_vertex_connectivity(circulant12, 0, 6) == 4

    def test_unreachable_pair_is_zero(self):
        graph = DiGraph.from_edges([(1, 2), (3, 4)])
        assert pairwise_vertex_connectivity(graph, 1, 4) == 0

    def test_adjacent_pair_rejected(self, ring10):
        with pytest.raises(ValueError, match="adjacent"):
            pairwise_vertex_connectivity(ring10, 0, 1)

    def test_identical_pair_rejected(self, ring10):
        with pytest.raises(ValueError, match="distinct"):
            pairwise_vertex_connectivity(ring10, 0, 0)

    def test_unknown_algorithm(self, ring10):
        with pytest.raises(ValueError, match="unknown algorithm"):
            pairwise_vertex_connectivity(ring10, 0, 5, algorithm="nope")


class TestGlobalConnectivity:
    def test_directed_cycle_is_one(self):
        assert global_vertex_connectivity(directed_cycle(7)) == 1

    def test_bidirectional_cycle_is_two(self, ring10):
        assert global_vertex_connectivity(ring10) == 2

    def test_circulant_is_four(self, circulant12):
        assert global_vertex_connectivity(circulant12) == 4

    def test_complete_graph_is_n_minus_one(self):
        assert global_vertex_connectivity(complete_graph(6)) == 5

    def test_graph_with_cut_vertex_is_one(self):
        """Two triangles joined at a single shared vertex have kappa = 1."""
        graph = DiGraph()
        for a, b in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
            graph.add_edge(a, b)
            graph.add_edge(b, a)
        assert global_vertex_connectivity(graph) == 1

    def test_disconnected_graph_is_zero(self):
        graph = DiGraph.from_edges([(1, 2), (2, 1), (3, 4), (4, 3)])
        assert global_vertex_connectivity(graph) == 0

    def test_isolated_vertex_forces_zero(self, circulant12):
        circulant12.add_vertex(99)
        assert global_vertex_connectivity(circulant12) == 0

    def test_single_vertex_and_empty(self):
        assert global_vertex_connectivity(DiGraph()) == 0
        lone = DiGraph()
        lone.add_vertex(1)
        assert global_vertex_connectivity(lone) == 0


class TestConnectivityStatistics:
    def test_average_at_least_minimum(self, circulant12):
        stats = connectivity_statistics(circulant12)
        assert stats.minimum == 4
        assert stats.average >= stats.minimum
        assert stats.pairs_evaluated > 0

    def test_complete_graph_fast_path(self):
        stats = connectivity_statistics(complete_graph(5))
        assert stats.minimum == 4 and stats.average == 4.0
        assert stats.pairs_evaluated == 0

    def test_zero_out_degree_vertex(self):
        graph = DiGraph.from_edges([(1, 2), (2, 1)])
        graph.add_vertex(3)  # never added to anyone's table
        stats = connectivity_statistics(graph)
        assert stats.minimum == 0

    def test_cutoff_mode_preserves_minimum(self, circulant12):
        # global_vertex_connectivity cuts every flow off at the running
        # minimum; connectivity_statistics runs every flow uncut.
        exact = connectivity_statistics(circulant12)
        assert global_vertex_connectivity(circulant12) == exact.minimum

    def test_min_pair_reported(self, figure1_graph):
        stats = connectivity_statistics(figure1_graph)
        assert stats.minimum == 0
        assert stats.min_pair is not None


def with_sink(seed):
    """A strongly connected seeded graph plus one out-degree-0 vertex.

    The sink has in-edges, so its row is the only one with kappa 0.
    """
    rng = random.Random(seed)
    graph = circulant_graph(9, [1, 3])
    for _ in range(6):
        source, target = rng.sample(range(9), 2)
        graph.add_edge(source, target)
    for source in rng.sample(range(9), 3):
        graph.add_edge(source, "sink")
    return graph


def two_sccs_joined_one_way(seed):
    """Two seeded strongly connected parts with edges only from the first.

    Vertex 0 (the first row) reaches everything, so kappa 0 shows only in
    the rows of the second part.
    """
    rng = random.Random(seed)
    graph = DiGraph()
    for offset in (0, 10):
        for i in range(6):
            graph.add_edge(offset + i, offset + (i + 1) % 6)
            graph.add_edge(offset + (i + 1) % 6, offset + i)
        for _ in range(4):
            source, target = rng.sample(range(6), 2)
            graph.add_edge(offset + source, offset + target)
    for source in rng.sample(range(6), 3):
        graph.add_edge(source, 10 + rng.randrange(6))
    return graph


def single_vertex():
    graph = DiGraph()
    graph.add_vertex(1)
    return graph


def per_pair_oracle(graph):
    """(min, mean, count, first minimum pair) from one flow per pair."""
    vertices = graph.vertices()
    pairs = [
        (v, w) for v in vertices for w in vertices
        if v != w and not graph.has_edge(v, w)
    ]
    if not pairs:
        value = max(len(vertices) - 1, 0)
        return value, float(value), 0, None
    values = [pairwise_vertex_connectivity(graph, v, w) for v, w in pairs]
    minimum = min(values)
    return minimum, sum(values) / len(values), len(values), pairs[values.index(minimum)]


ORACLE_GRAPHS = {
    **{f"sink-{seed}": (lambda seed=seed: with_sink(seed)) for seed in range(3)},
    **{
        f"two-sccs-{seed}": (lambda seed=seed: two_sccs_joined_one_way(seed))
        for seed in range(3)
    },
    "random": lambda: random_digraph(12, 0.3, random.Random(7)),
    "complete": lambda: complete_graph(5),
    "single-vertex": single_vertex,
    "empty": DiGraph,
    "circulant-12": lambda: circulant_graph(12, [1, 2]),
    "circulant-11": lambda: circulant_graph(11, [1, 4]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_statistics_and_global_minimum_match_per_pair_oracle(name):
    graph = ORACLE_GRAPHS[name]()
    minimum, mean, count, min_pair = per_pair_oracle(graph)
    stats = connectivity_statistics(graph)
    assert (stats.minimum, stats.average, stats.pairs_evaluated, stats.min_pair) == (
        minimum, mean, count, min_pair
    )
    assert global_vertex_connectivity(graph) == minimum
    if name.startswith(("sink", "two-sccs")):
        assert minimum == 0 and count > 0


class TestEngineQueries:
    """One-graph queries on the pair-flow engine, against the per-pair oracle."""

    def test_kappa_matches_pairwise_function(self, circulant12):
        outcome = PairFlowEngine(circulant12).evaluate([(0, 6)])
        assert outcome.values == [pairwise_vertex_connectivity(circulant12, 0, 6)]

    def test_minimum_over_full_vertex_set_is_exact(self, ring10):
        vertices = ring10.vertices()
        minimum, pairs = PairFlowEngine(ring10).minimum_over(vertices, vertices)
        assert minimum == 2
        assert pairs > 0

    def test_minimum_over_detects_zero_out_degree(self):
        graph = DiGraph.from_edges([(1, 2), (2, 1)])
        graph.add_vertex(3)
        minimum, _ = PairFlowEngine(graph).minimum_over([3], [1, 2, 3])
        assert minimum == 0

    def test_average_over_random_pairs(self, circulant12):
        pairs = sample_non_adjacent_pairs(circulant12, 20, random.Random(0))
        average, evaluated = PairFlowEngine(circulant12).average_over(pairs)
        assert evaluated == 20
        assert average == sum(
            pairwise_vertex_connectivity(circulant12, v, w) for v, w in pairs
        ) / 20
        assert average >= 4.0

    def test_average_over_complete_graph_has_no_pairs(self):
        graph = complete_graph(4)
        assert sample_non_adjacent_pairs(graph, 10, random.Random(0)) == []
        assert PairFlowEngine(graph).average_over([]) == (0.0, 0)


class TestDegreeHelpers:
    def test_degree_helpers(self, figure1_graph):
        assert lowest_out_degree_vertices(figure1_graph, 1) == ["i"]
        assert lowest_in_degree_vertices(figure1_graph, 1) == ["a"]

    @pytest.mark.parametrize("seed", range(30))
    def test_degree_helpers_are_the_per_vertex_sort(self, seed):
        # Read off whole degree lists; ties still break by vertex order.
        rng = random.Random(seed)
        graph = random_digraph(rng.randint(1, 30), rng.choice((0.05, 0.15, 0.4)), rng)
        if rng.random() < 0.5:
            graph.remove_vertex(rng.choice(graph.vertices()))
        vertices = graph.vertices()
        assert graph.out_degrees() == [graph.out_degree(v) for v in vertices]
        assert graph.in_degrees() == [graph.in_degree(v) for v in vertices]
        for count in (0, 1, len(vertices) // 2, len(vertices)):
            assert lowest_out_degree_vertices(graph, count) == sorted(
                vertices, key=graph.out_degree
            )[:count]
            assert lowest_in_degree_vertices(graph, count) == sorted(
                vertices, key=graph.in_degree
            )[:count]
