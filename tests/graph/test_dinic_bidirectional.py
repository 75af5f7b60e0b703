"""Tests built to fail for the bidirectional Dinic kernel and its undo log.

``test_maxflow_properties.py`` draws graphs of at most nine vertices, where
both BFS balls are one layer deep.  The graphs here have long shortest
paths (rings, grids, sparse random graphs of 30-200 vertices) and planted
cuts in the *middle*, so the two searches really meet several layers in,
and every value is checked against Edmonds-Karp and push-relabel, which
share none of the level-graph code.
"""

import random

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import circulant_graph, random_digraph
from repro.graph.maxflow import network_flow_function
from repro.graph.maxflow.residual import ResidualNetwork
from repro.runtime.pairflow import PairFlowEngine

dinic = network_flow_function("dinic")
edmonds_karp = network_flow_function("edmonds_karp")
push_relabel = network_flow_function("push_relabel")
SOLVERS = (("dinic", dinic), ("edmonds_karp", edmonds_karp), ("push_relabel", push_relabel))
CUTOFFS = (None, 1, 2, 3, 5)
#: Exactly representable, so sums of them are too and solvers agree bitwise.
FRACTIONS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.5)


# ----------------------------------------------------------------------
# Graph families with long shortest paths
# ----------------------------------------------------------------------
def ring_with_chords(rng: random.Random) -> DiGraph:
    n = rng.randint(30, 200)
    graph = circulant_graph(n, [1])
    for _ in range(n // 6):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


def grid(rng: random.Random) -> DiGraph:
    width, height = rng.randint(5, 14), rng.randint(6, 14)
    graph = DiGraph()
    graph.add_vertices(range(width * height))
    for x in range(width):
        for y in range(height):
            here = x * height + y
            neighbours = []
            if x + 1 < width:
                neighbours.append(here + height)
            if y + 1 < height:
                neighbours.append(here + 1)
            for there in neighbours:
                if rng.random() < 0.9:
                    graph.add_edge(here, there)
                if rng.random() < 0.9:
                    graph.add_edge(there, here)
    return graph


def sparse_random(rng: random.Random) -> DiGraph:
    n = rng.randint(30, 200)
    return random_digraph(n, min(0.1, 3.5 / n), rng)


FAMILIES = {"ring": ring_with_chords, "grid": grid, "random": sparse_random}


def with_capacities(graph: DiGraph, rng: random.Random) -> DiGraph:
    weighted = DiGraph()
    weighted.add_vertices(graph.vertices())
    for u, v, _ in graph.edges():
        weighted.add_edge(u, v, capacity=rng.choice(FRACTIONS))
    return weighted


def assert_cutoff_contract(name, value, exact, cutoff, unit):
    if cutoff is None or exact < cutoff:
        assert value == pytest.approx(exact), (name, cutoff)
    elif unit:
        assert value == pytest.approx(cutoff), (name, cutoff)
    else:
        assert cutoff - 1e-9 <= value <= exact + 1e-9, (name, cutoff)


@pytest.mark.parametrize("unit", (True, False), ids=("unit", "fractional"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", range(6))
def test_solvers_agree_on_deep_graphs(family, seed, unit):
    rng = random.Random(f"{family}-{seed}")
    graph = FAMILIES[family](rng)
    if not unit:
        graph = with_capacities(graph, rng)
    network = ResidualNetwork(graph)
    for _ in range(5):
        source, sink = rng.sample(range(network.n), 2)
        network.reset()
        exact = edmonds_karp(network, source, sink)
        for cutoff in CUTOFFS:
            for name, solver in SOLVERS:
                network.reset()
                bound = None if cutoff is None else float(cutoff)
                value = solver(network, source, sink, bound)
                assert_cutoff_contract(name, value, exact, cutoff, unit)


# ----------------------------------------------------------------------
# Planted cut in the middle: neither ball is small, and the minimum cut is
# nowhere near an endpoint.
# ----------------------------------------------------------------------
def planted_middle_cut(half: int, separators: int, rng: random.Random) -> DiGraph:
    """Two 6-connected circulant halves joined only through separator vertices.

    Vertices ``0 .. half-1`` and ``half .. 2*half-1`` are the halves; each
    of the ``separators`` extra vertices is wired both ways to three
    vertices of either half, with distinct first attachment points, so
    (fan lemma) every cross pair has connectivity exactly ``separators``.
    """
    graph = DiGraph()
    for base in (0, half):
        for u, v, _ in circulant_graph(half, [1, 2, 3]).edges():
            graph.add_edge(base + u, base + v)
    for base in (0, half):
        anchors = rng.sample(range(half), separators)
        for index, anchor in enumerate(anchors):
            separator = 2 * half + index
            for vertex in {anchor, *rng.sample(range(half), 2)}:
                graph.add_edge(base + vertex, separator)
                graph.add_edge(separator, base + vertex)
    return graph


@pytest.mark.parametrize("separators", (1, 2, 4, 6))
def test_planted_middle_cut_is_found(separators):
    rng = random.Random(separators)
    half = 40
    graph = planted_middle_cut(half, separators, rng)
    pairs = [
        (rng.randrange(half), half + rng.randrange(half)) for _ in range(6)
    ] + [(half + rng.randrange(half), rng.randrange(half)) for _ in range(6)]
    outcome = PairFlowEngine(graph).evaluate(pairs)
    assert outcome.values == [separators] * len(pairs)
    cut = PairFlowEngine(graph).evaluate(pairs, use_cutoff=True, initial_minimum=3)
    assert cut.values == [min(separators, 3)] * len(pairs)
    for algorithm in ("edmonds_karp", "push_relabel"):
        oracle = PairFlowEngine(graph, algorithm=algorithm).evaluate(pairs[:4])
        assert oracle.values == [separators] * 4


# ----------------------------------------------------------------------
# Degenerate endpoints
# ----------------------------------------------------------------------
class TestDegenerateEndpoints:
    def network(self):
        # 0 -> 1 -> 2 -> 3 -> 4 plus the shortcut 0 -> 4; 5 only has
        # out-arcs (in-degree 0); 6 is isolated.
        graph = DiGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 0), (5, 3)]
        )
        graph.add_vertex(6)
        return ResidualNetwork(graph)

    @pytest.mark.parametrize(
        "source, sink, expected",
        [
            (0, 4, 2.0),  # source adjacent to sink, plus a longer path
            (3, 4, 1.0),  # the only path is the single arc
            (4, 0, 0.0),  # unreachable sink (arcs point the other way)
            (0, 6, 0.0),  # isolated sink
            (0, 5, 0.0),  # sink with in-degree 0
            (5, 4, 2.0),
        ],
    )
    def test_value(self, source, sink, expected):
        network = self.network()
        for name, solver in SOLVERS:
            network.reset()
            value = solver(
                network, network.index_of(source), network.index_of(sink), None
            )
            assert value == expected, name

    def test_failed_search_leaves_the_network_clean(self):
        network = self.network()
        network.reset()
        assert dinic(network, network.index_of(4), network.index_of(0), None) == 0.0
        assert network.caps == network._initial_caps
        assert network.kernel_counters() == (0, 0, 2, 0)


# ----------------------------------------------------------------------
# Undo log
# ----------------------------------------------------------------------
class TestUndoLog:
    def setup_method(self):
        rng = random.Random(2017)
        self.graph = with_capacities(ring_with_chords(rng), rng)
        self.rng = rng

    def fresh_value(self, solver, source, sink, cutoff):
        return solver(ResidualNetwork(self.graph), source, sink, cutoff)

    def test_reset_restores_everything_after_every_dinic_query(self):
        network = ResidualNetwork(self.graph)
        for query in range(60):
            source, sink = self.rng.sample(range(network.n), 2)
            cutoff = self.rng.choice((None, None, 0.5, 1.0, 2.0))
            network.reset()
            assert network.caps == network._initial_caps, query
            value = dinic(network, source, sink, cutoff)
            assert value == self.fresh_value(dinic, source, sink, cutoff), query
        network.reset()
        assert network.caps == network._initial_caps

    def test_reset_after_the_oracle_solvers_falls_back_to_a_full_copy(self):
        network = ResidualNetwork(self.graph)
        solvers = [dinic, dinic, edmonds_karp, dinic, push_relabel, dinic, dinic]
        for query in range(42):
            solver = solvers[query % len(solvers)]
            source, sink = self.rng.sample(range(network.n), 2)
            network.reset()
            assert network.caps == network._initial_caps, query
            value = solver(network, source, sink, None)
            assert value == self.fresh_value(edmonds_karp, source, sink, None), query

    def test_dinic_straight_after_an_oracle_without_reset_is_still_undone(self):
        # The log is unknown (None) after Edmonds-Karp; Dinic must not
        # start a partial one that a later reset() would trust.
        network = ResidualNetwork(self.graph)
        network.reset()
        edmonds_karp(network, 0, network.n // 2, 1.0)
        dinic(network, 0, network.n // 2, None)
        network.reset()
        assert network.caps == network._initial_caps

    def test_min_cut_and_arc_flows_after_dinic(self):
        # flow_on_arc / min_cut_reachable back graph/algorithms/paths.py
        # and attack/adversary.py: max-flow = min-cut = net flow out of s.
        network = ResidualNetwork(self.graph)
        forward_arcs = range(0, network.arc_count(), 2)
        for _ in range(10):
            source, sink = self.rng.sample(range(network.n), 2)
            network.reset()
            value = dinic(network, source, sink, None)
            side = set(network.min_cut_reachable(source))
            assert source in side and (sink not in side or value == 0.0)
            cut_capacity = sum(
                network._initial_caps[arc]
                for arc in forward_arcs
                if network.heads[arc ^ 1] in side and network.heads[arc] not in side
            )
            assert value == pytest.approx(cut_capacity)
            net_out = sum(
                network.flow_on_arc(arc) * (1 if network.heads[arc ^ 1] == source else -1)
                for arc in forward_arcs
                if source in (network.heads[arc], network.heads[arc ^ 1])
            )
            assert value == pytest.approx(net_out)
