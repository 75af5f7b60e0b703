"""Tests built to fail for the bidirectional Dinic kernel and its undo log.

``test_maxflow_properties.py`` draws graphs of at most nine vertices, where
both BFS balls are one layer deep.  The graphs here have long shortest
paths (rings, grids, sparse random graphs of 30-200 vertices) and planted
cuts in the *middle*, so the two searches really meet several layers in,
and every value is checked against Edmonds-Karp and push-relabel, which
share none of the level-graph code.

The last sections guard how a vertex is read (``dinic.py``, "What a
vertex is read through"): flows run back to back *without* ``reset()``,
so later ones search a network the earlier ones changed, and after every
flow the invariant the head tuples stand on is asserted directly; every
level graph and every flow is also compared with the whole-list read of
the same residual state, and so are the single-exit steps of the DFS.
"""

import random
from array import array

import pytest

from repro.api import synthetic_snapshot
from repro.core.connectivity_graph import build_connectivity_graph
from repro.core.vertex_connectivity import sample_non_adjacent_pairs
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    circulant_graph,
    random_digraph,
    random_regular_out_digraph,
)
from repro.graph.maxflow import dinic as dinic_module
from repro.graph.maxflow import network_flow_function
from repro.graph.maxflow.residual import (
    KERNEL_COUNTERS,
    RESIDUAL_EPS,
    ResidualNetwork,
    is_twin,
)
from repro.graph.transform.even_transform import indexed_even_transform
from repro.runtime.executor import make_executor
from repro.runtime import pairflow
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
        assert network.kernel_counters() == (0, 0, 2, 0, 0)


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


# ----------------------------------------------------------------------
# Head-tuple reads: a vertex no path has changed is read through the
# tuple of one half of its arc list.  Wrong marks show up only on a
# network that already carries flow, so every scenario interleaves flows
# with and without reset(), and the oracles start from a copy of the very
# residual state Dinic starts from.
# ----------------------------------------------------------------------
def assert_layout(network):
    """Capacity-bearing arcs first, twins after, ``boundary`` between."""
    for v, arcs in enumerate(network.adjacency):
        split = network.boundary[v]
        assert not any(is_twin(arc) for arc in arcs[:split]), v
        assert all(is_twin(arc) for arc in arcs[split:]), v
        assert all(network.heads[arc ^ 1] == v for arc in arcs), v


def assert_unmarked_vertices_are_pristine(network):
    """Every arc at a vertex without a current mark is at its initial capacity."""
    assert network._touched is not None
    caps, initial = network.caps, network._initial_caps
    for v, arcs in enumerate(network.adjacency):
        if network._changed[v] == network._epoch:
            continue
        for arc in arcs:
            assert caps[arc] == initial[arc] and caps[arc ^ 1] == initial[arc ^ 1], v


def copy_in_state(network, caps):
    """A fresh network with the same arcs, at residual capacities ``caps``."""
    copy = network.compact().thaw()
    copy.caps[:] = caps
    return copy


def residual_cut_capacity(network, caps_before, source):
    side = set(network.min_cut_reachable(source))
    return sum(
        caps_before[arc]
        for arc in range(network.arc_count())
        if network.heads[arc ^ 1] in side and network.heads[arc] not in side
    )


def run_interleaved(network, queries, rng, unit=True, oracles=(edmonds_karp, push_relabel)):
    """Dinic on a shared network against oracles on copies of its state.

    ``queries`` are ``(source, sink)`` index pairs; whether a query is cut
    off, and whether ``reset()`` precedes it, is drawn from ``rng``.
    """
    assert_layout(network)
    resets = 0
    for number, (source, sink) in enumerate(queries):
        if number == 0 or rng.random() < 0.4:
            network.reset()
            resets += 1
            assert network.caps == network._initial_caps
        assert_unmarked_vertices_are_pristine(network)
        cutoff = rng.choice((None, None, 1.0, 2.0, 4.0))
        before = list(network.caps)
        value = dinic(network, source, sink, cutoff)
        assert_unmarked_vertices_are_pristine(network)
        for oracle in oracles:
            exact = oracle(copy_in_state(network, before), source, sink, None)
            assert_cutoff_contract(oracle.__name__, value, exact, cutoff, unit)
        if cutoff is None:
            assert value == pytest.approx(residual_cut_capacity(network, before, source))
    assert 0 < resets < len(queries) or len(queries) < 3
    return network


def even_network(graph):
    transform = indexed_even_transform(graph)
    return transform, transform.network


def even_queries(transform, graph, count, rng):
    pairs = sample_non_adjacent_pairs(graph, count, rng)
    return [transform.flow_endpoint_indices(source, target) for source, target in pairs]


@pytest.mark.parametrize("unit", (True, False), ids=("unit", "fractional"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", range(4))
def test_interleaved_flows_on_deep_graphs(family, seed, unit):
    rng = random.Random(f"half-{family}-{seed}")
    graph = FAMILIES[family](rng)
    if not unit:
        graph = with_capacities(graph, rng)
    network = ResidualNetwork(graph)
    queries = [tuple(rng.sample(range(network.n), 2)) for _ in range(12)]
    run_interleaved(network, queries, rng, unit)


@pytest.mark.parametrize("seed", range(4))
def test_interleaved_flows_on_dense_thirty_vertex_even_networks(seed):
    # The ``tiny`` profile's shape: most vertices end up on a flow path,
    # so marked (whole-list) and unmarked reads mix within every search.
    rng = random.Random(f"dense-{seed}")
    graph = random_regular_out_digraph(30, 8, rng)
    transform, network = even_network(graph)
    run_interleaved(network, even_queries(transform, graph, 25, rng), rng)
    assert network.full_scans > 0


@pytest.mark.parametrize("separators", (2, 4, 6))
def test_interleaved_flows_across_a_planted_middle_cut(separators):
    rng = random.Random(f"planted-{separators}")
    half = 40
    graph = planted_middle_cut(half, separators, rng)
    transform, network = even_network(graph)
    pairs = [(rng.randrange(half), half + rng.randrange(half)) for _ in range(8)]
    pairs += [(half + rng.randrange(half), rng.randrange(half)) for _ in range(8)]
    rng.shuffle(pairs)
    queries = [transform.flow_endpoint_indices(*pair) for pair in pairs]
    run_interleaved(network, queries, rng)


def test_interleaved_flows_on_a_snapshot_sample():
    snapshot = synthetic_snapshot(2500, contacts_per_node=16, seed=42)
    graph = build_connectivity_graph(snapshot.routing_tables)
    rng = random.Random(42)
    transform, network = even_network(graph)
    queries = even_queries(transform, graph, 8, rng)
    # Push-relabel takes seconds per flow at this size; Edmonds-Karp and
    # min-cut = max-flow are oracle enough here.
    run_interleaved(network, queries, rng, oracles=(edmonds_karp,))
    assert network.full_scans * 10 < network.vertices_labelled


class TestMarks:
    """Who marks, who unmarks, and what a network without a log does."""

    def setup_method(self):
        rng = random.Random(24)
        self.graph = random_regular_out_digraph(30, 6, rng)
        self.transform, self.network = even_network(self.graph)
        self.queries = even_queries(self.transform, self.graph, 10, rng)

    def test_a_new_network_keeps_the_log_and_has_no_marks(self):
        network = self.network
        assert network._touched == []
        assert network._epoch not in network._changed
        source, sink = self.queries[0]
        assert dinic(network, source, sink, None) > 0
        assert_unmarked_vertices_are_pristine(network)

    def test_both_ends_of_every_path_arc_are_marked(self):
        network = self.network
        source, sink = self.queries[0]
        network.reset()
        value = dinic(network, source, sink, None)
        marked = {v for v in range(network.n) if network._changed[v] == network._epoch}
        on_paths = {network.heads[arc] for arc in network._touched}
        on_paths |= {network.heads[arc ^ 1] for arc in network._touched}
        assert value > 0 and {source, sink} <= on_paths
        assert marked == on_paths

    @pytest.mark.parametrize("oracle", (None, edmonds_karp, push_relabel))
    def test_reset_unmarks_every_vertex_in_either_branch(self, oracle):
        network = self.network
        source, sink = self.queries[0]
        network.reset()
        dinic(network, source, sink, None)
        assert network._epoch in network._changed
        if oracle is not None:  # log off: reset() copies every capacity
            other_source, other_sink = self.queries[1]
            oracle(network, other_source, other_sink, None)
            assert network._touched is None
        network.reset()
        assert network._epoch not in network._changed
        assert network._touched == [] and network.caps == network._initial_caps

    @pytest.mark.parametrize("oracle", (edmonds_karp, push_relabel))
    def test_without_a_log_every_vertex_is_read_in_full(self, oracle):
        # The oracle leaves flow on vertices nobody marked; Dinic then runs
        # on that state without reset() and must see all of it.
        network = self.network
        for (source, sink), (next_source, next_sink) in zip(
            self.queries, self.queries[1:]
        ):
            network.reset()
            oracle(network, source, sink, 2.0)
            assert network._touched is None
            before = list(network.caps)
            labelled, scans = network.vertices_labelled, network.full_scans
            value = dinic(network, next_source, next_sink, None)
            exact = edmonds_karp(
                copy_in_state(network, before), next_source, next_sink, None
            )
            assert value == exact
            assert value == pytest.approx(
                residual_cut_capacity(network, before, next_source)
            )
            # Every expanded frontier vertex counted; only the last layers
            # of the final phase are labelled without being expanded.
            assert network.full_scans > scans
            assert network.full_scans - scans <= network.vertices_labelled - labelled
            assert network._touched is None

    def reroute_network(self):
        # Arc order makes every solver push 0-1-3-5 first.  The second
        # unit enters 3 from 2, finds 3 -> 5 full, and has to send the
        # first one round by 1-4-5: a path through 3's twin of 1 -> 3,
        # which only a whole-list read of vertex 3 sees.
        graph = DiGraph.from_edges(
            [(0, 1), (1, 3), (3, 5), (0, 2), (2, 3), (1, 4), (4, 5)]
        )
        network = ResidualNetwork(graph)
        return network, network.index_of(0), network.index_of(5)

    def test_a_vertex_marked_mid_flow_is_read_in_full_by_the_next_phase(self):
        network, source, sink = self.reroute_network()
        for _ in range(2):
            network.reset()
            scans = network.full_scans
            assert dinic(network, source, sink, None) == 2.0
            assert network.phases % 2 == 0 and network.full_scans > scans
            assert_unmarked_vertices_are_pristine(network)

    def test_dinic_continues_an_oracle_flow_through_twins_nobody_marked(self):
        # (Edmonds-Karp only: a cut-off push-relabel leaves a preflow.)
        network, source, sink = self.reroute_network()
        assert edmonds_karp(network, source, sink, 1.0) == 1.0
        assert network.flow_on_arc(network.adjacency[network.index_of(1)][0]) == 1.0
        assert network._epoch not in network._changed
        assert dinic(network, source, sink, None) == 1.0

    def test_tuples_built_after_an_oracle_flow_describe_initial_capacities(self):
        # The first Dinic call builds the tuples; here it follows an
        # Edmonds-Karp flow without reset(), so ``caps`` is not initial.
        network = self.network
        assert network.out_heads is None and network.in_tails is None
        edmonds_karp(network, *self.queries[0], None)
        dinic(network, *self.queries[1], None)
        assert network.caps != network._initial_caps
        assert_head_tuples(network)
        run_interleaved(network, self.queries[2:], random.Random(5))

    def test_zero_capacity_arcs_in_the_first_half_are_harmless(self):
        graph = DiGraph()
        for u, v, capacity in [(0, 1, 0.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0), (0, 3, 0.0)]:
            graph.add_edge(u, v, capacity=capacity)
        for name, solver in SOLVERS:
            network = ResidualNetwork(graph)
            assert solver(network, network.index_of(0), network.index_of(3), None) == 1.0, name


def test_thawed_network_carries_the_layout_and_matches_serial(obs_enabled, monkeypatch):
    rng = random.Random(77)
    graph = random_regular_out_digraph(60, 5, rng)
    pairs = sample_non_adjacent_pairs(graph, 30, rng)
    engine = PairFlowEngine(graph)
    frozen = engine.transform.compact()
    assert list(frozen.boundary) == engine.transform.network.boundary
    thawed = frozen.thaw()
    assert_layout(thawed)
    assert [list(arcs) for arcs in thawed.adjacency] == [
        list(arcs) for arcs in engine.transform.network.adjacency
    ]
    assert all(type(arcs) is array and arcs.typecode == "q" for arcs in thawed.adjacency)
    assert thawed.boundary == engine.transform.network.boundary
    # A thawed network builds its own tuples, on its first Dinic call.
    assert thawed.out_heads is None
    assert thawed.head_tuples() == engine.transform.network.head_tuples()
    assert_head_tuples(thawed)
    monkeypatch.setattr(pairflow, "SHARD_SIZE", 8)
    monkeypatch.setattr(pairflow, "WAVE_WIDTH", 2)
    runs = {}
    session = make_executor(2).open_session()
    try:
        for jobs, borrowed in ((1, None), (2, session)):
            for cut in (False, True):
                obs_enabled.clear()
                outcome = PairFlowEngine(graph, session=borrowed).evaluate(
                    pairs, use_cutoff=cut, initial_minimum=3
                )
                counters = {
                    name: obs_enabled.counter(f"maxflow.{name}") for name in KERNEL_COUNTERS
                }
                runs[jobs, cut] = (outcome.values, counters)
    finally:
        session.close()
    for cut in (False, True):
        assert runs[2, cut] == runs[1, cut]
        assert runs[1, cut][1]["phases"] > 0
    assert runs[1, False][0] == engine.evaluate(pairs).values


# ----------------------------------------------------------------------
# Head tuples against the whole-list read.  A network whose every vertex
# is marked is read whole, with the capacity test, everywhere; on the
# same residual state the kernel must grow the same layers in the same
# order, meet at the same arc and push the same paths in the same order —
# so the undo logs and the residual capacities after the flow match arc
# for arc.
# ----------------------------------------------------------------------
def assert_head_tuples(network):
    """The tuples restate each half of each list at its initial capacities."""
    out_heads, in_tails = network.head_tuples()
    heads, initial = network.heads, network._initial_caps
    for v, arcs in enumerate(network.adjacency):
        split = network.boundary[v]
        assert out_heads[v] == tuple(
            heads[arc] if initial[arc] > RESIDUAL_EPS else v for arc in arcs[:split]
        ), v
        assert in_tails[v] == tuple(
            heads[twin] if initial[twin ^ 1] > RESIDUAL_EPS else v for twin in arcs[split:]
        ), v


def whole_list_layer(network, stamp, levels, gen, frontier, backward, label):
    """One layer grown by whole-list reads into ``stamp`` and ``levels``."""
    layer = []
    for u in frontier:
        for arc in network.adjacency[u]:
            if network.caps[arc ^ backward] > RESIDUAL_EPS:
                v = network.heads[arc]
                if stamp[v] != gen:
                    stamp[v], levels[v] = gen, label
                    layer.append(v)
                elif (levels[v] < 0) != backward:
                    return layer, True
    return layer, False


def whole_list_level_graph(network, source, sink):
    """``_level_graph`` by whole-list reads, on copies of stamps and levels.

    Returns ``((met, f, b, labelled), stamp, levels)``.
    """
    stamp, levels = list(network._stamp), list(network._levels)
    gen = network._gen + 1
    stamp[source] = stamp[sink] = gen
    levels[source], levels[sink] = 0, -1
    frontiers, depths, labelled = [[source], [sink]], [0, 0], 2
    while frontiers[0] and frontiers[1]:
        side = int(len(frontiers[0]) > len(frontiers[1]))  # 1: backward
        label = -2 - depths[1] if side else depths[0] + 1
        layer, met = whole_list_layer(
            network, stamp, levels, gen, frontiers[side], side, label
        )
        labelled += len(layer)
        if met:
            for v in layer:
                stamp[v] = 0
            return (True, depths[0], depths[1], labelled), stamp, levels
        frontiers[side] = layer
        depths[side] += 1
    return (False, depths[0], depths[1], labelled), stamp, levels


@pytest.fixture
def checked_searches(monkeypatch):
    """Compare every level graph the kernel grows with the whole-list read."""
    checked = []
    level_graph = dinic_module._level_graph

    def compared(network, source, sink, epoch):
        expected, stamp, levels = whole_list_level_graph(network, source, sink)
        grown = level_graph(network, source, sink, epoch)
        assert grown == expected
        assert network._stamp == stamp and network._levels == levels
        checked.append(grown)
        return grown

    monkeypatch.setattr(dinic_module, "_level_graph", compared)
    return checked


def read_whole_everywhere(network):
    """A copy of ``network``'s residual state on which every vertex is marked."""
    twin = copy_in_state(network, network.caps)
    twin._changed[:] = [twin._epoch] * twin.n
    return twin


def run_against_whole_list_reads(network, queries, rng, cutoffs=(None, None, 1.0, 2.0, 4.0)):
    """Dinic on a shared network, each flow also run on a read-whole twin.

    The twin's undo log must equal what the flow added to the network's,
    arc for arc: the same augmenting paths, pushed in the same order.
    Returns the flow values.
    """
    values = []
    for number, (source, sink) in enumerate(queries):
        if number == 0 or rng.random() < 0.4:
            network.reset()
        cutoff = rng.choice(cutoffs)
        twin = read_whole_everywhere(network)
        before = network.kernel_counters()
        logged = len(network._touched)
        value = dinic(network, source, sink, cutoff)
        assert dinic(twin, source, sink, cutoff) == value
        assert twin._touched == network._touched[logged:]
        assert twin.caps == network.caps
        moved = [after - was for was, after in zip(before, network.kernel_counters())]
        # phases, augmentations, vertices_labelled, cutoff_hits
        assert tuple(moved[:4]) == twin.kernel_counters()[:4]
        values.append(value)
    assert_head_tuples(network)
    return values


def with_inert_pairs(graph, rng):
    """``graph`` with about a fifth of its arcs given capacity 0."""
    inert = DiGraph()
    inert.add_vertices(graph.vertices())
    for u, v, capacity in graph.edges():
        inert.add_edge(u, v, capacity=0.0 if rng.random() < 0.2 else capacity)
    return inert


@pytest.mark.parametrize("unit", (True, False), ids=("unit", "fractional"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", range(3))
def test_tuple_reads_match_whole_list_reads_on_deep_graphs(
    family, seed, unit, checked_searches
):
    rng = random.Random(f"tuples-{family}-{seed}")
    graph = FAMILIES[family](rng)
    if not unit:
        graph = with_capacities(graph, rng)
    network = ResidualNetwork(graph)
    queries = [tuple(rng.sample(range(network.n), 2)) for _ in range(12)]
    run_against_whole_list_reads(network, queries, rng)
    assert checked_searches


@pytest.mark.parametrize("seed", range(4))
def test_tuple_reads_match_whole_list_reads_on_even_networks(seed, checked_searches):
    rng = random.Random(f"tuples-even-{seed}")
    graph = random_regular_out_digraph(rng.choice((30, 60)), rng.choice((5, 8)), rng)
    transform, network = even_network(graph)
    run_against_whole_list_reads(network, even_queries(transform, graph, 20, rng), rng)
    assert network.full_scans > 0 and checked_searches


@pytest.mark.parametrize("separators", (2, 4))
def test_tuple_reads_match_whole_list_reads_across_a_planted_cut(separators, checked_searches):
    rng = random.Random(f"tuples-planted-{separators}")
    half = 40
    transform, network = even_network(planted_middle_cut(half, separators, rng))
    pairs = [(rng.randrange(half), half + rng.randrange(half)) for _ in range(6)]
    pairs += [(half + rng.randrange(half), rng.randrange(half)) for _ in range(6)]
    run_against_whole_list_reads(
        network, [transform.flow_endpoint_indices(*pair) for pair in pairs], rng
    )
    assert checked_searches


@pytest.mark.parametrize("unit", (True, False), ids=("unit", "fractional"))
@pytest.mark.parametrize("seed", range(6))
def test_tuple_reads_match_whole_list_reads_with_inert_pairs(seed, unit, checked_searches):
    # Inert pairs sit in both tuples as the vertex itself; flows through
    # their neighbours mark vertices mid-phase, where the scan must resume
    # at the same list position it reached through the tuple.
    rng = random.Random(f"tuples-inert-{seed}")
    graph = FAMILIES[rng.choice(sorted(FAMILIES))](rng)
    if not unit:
        graph = with_capacities(graph, rng)
    network = ResidualNetwork(with_inert_pairs(graph, rng))
    assert any(capacity == 0.0 for capacity in network._initial_caps[0::2])
    queries = [tuple(rng.sample(range(network.n), 2)) for _ in range(12)]
    run_against_whole_list_reads(network, queries, rng)
    run_interleaved(network, queries, rng, unit)
    assert checked_searches


# ----------------------------------------------------------------------
# Single exits: the DFS decides an untouched vertex with one head from its
# parent's scan (``dinic.py``, "Single exits").  Each case runs with and
# without cutoffs against the read-whole twin, which enters every vertex,
# so a step that pushes another path, or the same paths in another order,
# fails on the undo log.
# ----------------------------------------------------------------------
CAPACITIES = {
    "unit": lambda rng: 1.0,
    "fractional": lambda rng: rng.choice(FRACTIONS),
    "inert": lambda rng: 0.0 if rng.random() < 0.15 else 1.0,
}
CUT = {"uncut": (None,), "cut": (1.0, 2.0)}


def chain_network(rng, capacity):
    """Hubs joined by chains of single-exit vertices, built from arcs.

    Returns ``(network, singles)``: ``singles`` are the chain vertices,
    each the tail of exactly one arc.  Some chains end in another chain's
    vertex, which then has several ways in: a path through it marks it
    while it stays in the level graph for the next scan that offers it.
    """
    hubs = rng.randint(6, 16)
    arcs, singles = [], []
    for hub in range(hubs):
        for _ in range(rng.randint(3, 6)):
            tail = hub
            for _ in range(rng.randint(1, 3)):
                merges = [vertex for vertex in singles if vertex != tail]
                if merges and rng.random() < 0.3:
                    arcs.append((tail, rng.choice(merges), capacity(rng)))
                    break
                vertex = hubs + len(singles)
                arcs.append((tail, vertex, capacity(rng)))
                singles.append(vertex)
                tail = vertex
            else:
                others = [other for other in range(hubs) if other != hub]
                arcs.append((tail, rng.choice(others), capacity(rng)))
    network = ResidualNetwork.from_arcs(hubs + len(singles), arcs)
    assert all(network.boundary[vertex] == 1 for vertex in singles)
    return network, singles


@pytest.mark.parametrize("cut", sorted(CUT))
@pytest.mark.parametrize("capacity", ("unit", "fractional"))
@pytest.mark.parametrize("seed", range(4))
def test_chains_of_single_exits_match_whole_list_reads(seed, capacity, cut, checked_searches):
    rng = random.Random(f"chains-{capacity}-{seed}")
    network, _ = chain_network(rng, CAPACITIES[capacity])
    queries = [tuple(rng.sample(range(network.n), 2)) for _ in range(16)]
    values = run_against_whole_list_reads(network, queries, rng, CUT[cut])
    assert any(values) and checked_searches


@pytest.mark.parametrize("cut", sorted(CUT))
@pytest.mark.parametrize("seed", range(4))
def test_single_exit_sinks_match_whole_list_reads(seed, cut, checked_searches):
    # The sink ends the path; stepping past it would unstamp it or run on.
    rng = random.Random(f"sinks-{seed}")
    network, singles = chain_network(rng, CAPACITIES["unit"])
    queries = [(rng.randrange(network.n), rng.choice(singles)) for _ in range(16)]
    queries = [(source, sink) for source, sink in queries if source != sink]
    values = run_against_whole_list_reads(network, queries, rng, CUT[cut])
    assert any(values) and checked_searches


@pytest.mark.parametrize("cut", sorted(CUT))
@pytest.mark.parametrize("seed", range(4))
def test_inert_single_exits_match_whole_list_reads(seed, cut, checked_searches):
    # An inert exit sits in the tuple as the vertex itself, never one
    # level above it: the step must close such a vertex, not take it.
    rng = random.Random(f"inert-exits-{seed}")
    network, singles = chain_network(rng, CAPACITIES["inert"])
    out_heads, _ = network.head_tuples()
    assert any(out_heads[vertex] == (vertex,) for vertex in singles)
    queries = [tuple(rng.sample(range(network.n), 2)) for _ in range(16)]
    values = run_against_whole_list_reads(network, queries, rng, CUT[cut])
    assert any(values) and checked_searches


@pytest.mark.parametrize("cutoff", (None, 2.0), ids=("uncut", "cut"))
def test_single_exits_marked_mid_phase_are_entered(cutoff, checked_searches):
    # One phase: s -> a -> v -> t is pushed first and marks v and t, which
    # stay stamped.  Then b's tuple offers v again, whose tuple still says
    # "one exit, t": only entering v (whole list, v -> t full) closes it.
    # y's single exit into the marked sink is then taken.  a and b have
    # two exits each (a -> d leads nowhere), so the DFS enters them.
    s, a, b, v, y, d, t = range(7)
    arcs = [(s, a), (s, b), (a, v), (a, d), (b, v), (b, y), (v, t), (y, t)]
    network = ResidualNetwork.from_arcs(7, [(tail, head, 1.0) for tail, head in arcs])
    values = run_against_whole_list_reads(network, [(s, t)], random.Random(0), (cutoff,))
    assert values == [2.0] and checked_searches[0] == (True, 1, 1, 6)
    paths = [arcs.index(arc) * 2 for arc in [(s, a), (a, v), (v, t), (s, b), (b, y), (y, t)]]
    assert network._touched == paths


class CountingTuples(list):
    """A per-vertex tuple list that counts the reads made through it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


def test_untouched_vertices_are_read_through_their_tuples():
    # The guard that fails if the tuple path silently stops being taken:
    # the level-graph search (both directions) and the blocking-flow scan
    # must each read mostly through the tuples, and the flows must not move.
    rng = random.Random(31)
    graph = random_regular_out_digraph(300, 12, rng)
    transform, network = even_network(graph)
    queries = even_queries(transform, graph, 24, rng)
    plain = []
    for source, sink in queries:
        network.reset()
        plain.append(dinic(network, source, sink, None))
    scans, labelled = network.full_scans, network.vertices_labelled
    out_heads, in_tails = (CountingTuples(tuples) for tuples in network.head_tuples())
    network.out_heads, network.in_tails = out_heads, in_tails
    counted = []
    for source, sink in queries:
        network.reset()
        counted.append(dinic(network, source, sink, None))
    assert counted == plain
    assert network.vertices_labelled == 2 * labelled
    assert network.full_scans == 2 * scans
    # Forward searches and blocking-flow scans read ``out_heads``,
    # backward searches ``in_tails``; whole-list reads stay the exception.
    # The counts repeat exactly, so they are pinned: a kernel that stops
    # taking either tuple path in any of the three places reads fewer.
    # A single exit is read once, from its parent's scan; one left
    # stamped after it was closed is offered, and read, again.  A dead
    # end reached through a single exit prunes that exit in the same
    # turn, without re-reading its tuple.
    assert (out_heads.reads, in_tails.reads, scans) == (6348, 814, 123)


class TupleReadsByVertex(list):
    """A per-vertex tuple list that counts the reads of each vertex's tuple."""

    def __init__(self, tuples):
        super().__init__(tuples)
        self.reads = [0] * len(tuples)

    def __getitem__(self, index):
        self.reads[index] += 1
        return list.__getitem__(self, index)


def dead_end_behind_single_exits():
    """s -> a -> v -> w, where w leads nowhere, beside s -> p -> ... -> t.

    t's three tails keep the backward frontier the wider one, so the
    forward search labels w at depth 3 before q's layer reaches r1.
    """
    s, a, v, w, p, q, x, r1, r2, r3, t = range(11)
    arcs = [(s, a), (s, p), (a, v), (v, w), (p, q), (q, x), (x, r1), (r1, t), (r2, t), (r3, t)]
    network = ResidualNetwork.from_arcs(11, [(tail, head, 1.0) for tail, head in arcs])
    return network, (s, a, v, w, t)


def test_a_dead_end_prunes_the_single_exits_behind_it_in_the_same_turn():
    # One phase (the cutoff stops the flow at its first path): s's scan
    # steps through a, whose one exit is v; the DFS enters v and then w,
    # which has no way on.  v and a are untouched with one exit each, so
    # w's turn prunes both: each tuple is read once by the forward search
    # and once by the DFS.  Re-entering them would read each a third time.
    network, (s, a, v, w, t) = dead_end_behind_single_exits()
    out_heads, _ = network.head_tuples()
    network.out_heads = counted = TupleReadsByVertex(out_heads)
    assert dinic(network, s, t, 1.0) == 1.0
    assert network.phases == 1 and network.augmentations == 1
    assert (counted.reads[a], counted.reads[v]) == (2, 2)
    assert network._stamp[a] == network._stamp[v] == network._stamp[w] == 0


@pytest.mark.parametrize("cutoff", (None, 1.0), ids=("uncut", "cut"))
def test_a_dead_end_behind_single_exits_matches_whole_list_reads(cutoff, checked_searches):
    network, (s, _, _, _, t) = dead_end_behind_single_exits()
    values = run_against_whole_list_reads(network, [(s, t)], random.Random(0), (cutoff,))
    assert values == [1.0] and checked_searches[0] == (True, 3, 1, 11)
