"""Tests for Even's vertex-splitting transformation."""

import gc
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import synthetic_snapshot
from repro.core.connectivity_graph import build_connectivity_graph
from repro.graph.digraph import DiGraph
from repro.graph.errors import VertexNotFoundError
from repro.graph.generators import figure1_example_graph
from repro.graph.maxflow import max_flow, network_flow_function
from repro.graph.maxflow.residual import ResidualNetwork
from repro.graph.transform.even_transform import (
    even_transform,
    indexed_even_transform,
    split_names,
)


class TestSplitNames:
    def test_string_vertices_get_primes(self):
        assert split_names("a") == ("a'", "a''")

    def test_non_string_vertices_get_tuples(self):
        assert split_names(42) == ((42, "in"), (42, "out"))

    def test_no_collisions_for_integers(self):
        names = set()
        for vertex in range(100):
            names.update(split_names(vertex))
        assert len(names) == 200


class TestTransformStructure:
    def test_vertex_and_edge_counts(self, figure1_graph):
        """D' has 2n vertices and m + n edges (paper Section 4.3)."""
        n = figure1_graph.number_of_vertices()
        m = figure1_graph.number_of_edges()
        transformed = even_transform(figure1_graph).graph
        assert transformed.number_of_vertices() == 2 * n
        assert transformed.number_of_edges() == m + n

    def test_internal_edges_have_unit_capacity(self, figure1_graph):
        transform = even_transform(figure1_graph)
        for vertex in figure1_graph.vertices():
            v_in = transform.incoming[vertex]
            v_out = transform.outgoing[vertex]
            assert transform.graph.has_edge(v_in, v_out)
            assert transform.graph.capacity(v_in, v_out) == 1.0

    def test_incoming_and_outgoing_degrees_preserved(self, figure1_graph):
        transform = even_transform(figure1_graph)
        for vertex in figure1_graph.vertices():
            v_in = transform.incoming[vertex]
            v_out = transform.outgoing[vertex]
            # v' receives all original incoming edges plus nothing else.
            assert transform.graph.in_degree(v_in) == figure1_graph.in_degree(vertex)
            # v'' emits all original outgoing edges.
            assert transform.graph.out_degree(v_out) == figure1_graph.out_degree(vertex)
            # The only edge out of v' is the internal one; the only edge into
            # v'' is the internal one.
            assert transform.graph.out_degree(v_in) == 1
            assert transform.graph.in_degree(v_out) == 1

    def test_original_edges_connect_out_to_in(self):
        graph = DiGraph.from_edges([("x", "y")])
        transform = even_transform(graph)
        assert transform.graph.has_edge("x''", "y'")

    def test_custom_internal_capacity(self):
        graph = DiGraph.from_edges([("x", "y")])
        transform = even_transform(graph, internal_capacity=3.0)
        assert transform.graph.capacity("x'", "x''") == 3.0

    def test_flow_endpoints(self, figure1_graph):
        transform = even_transform(figure1_graph)
        source, target = transform.flow_endpoints("a", "i")
        assert source == "a''"
        assert target == "i'"

    def test_original_vertices_preserved(self, figure1_graph):
        transform = even_transform(figure1_graph)
        assert transform.original_vertices() == figure1_graph.vertices()


class TestPaperFigure1:
    """The worked example of the paper's Figure 1."""

    def test_max_flow_on_original_is_three(self):
        graph = figure1_example_graph()
        assert max_flow(graph, "a", "i").as_int() == 3

    def test_max_flow_on_transformed_is_one(self):
        """After the transformation the flow equals kappa(a, i) = 1."""
        graph = figure1_example_graph()
        transform = even_transform(graph)
        source, target = transform.flow_endpoints("a", "i")
        for algorithm in ("push_relabel", "dinic", "edmonds_karp"):
            result = max_flow(transform.graph, source, target, algorithm=algorithm)
            assert result.as_int() == 1, algorithm


class TestIndexedEvenTransform:
    def test_structure_matches_classic_transform(self, figure1_graph):
        transform = indexed_even_transform(figure1_graph)
        n = figure1_graph.number_of_vertices()
        m = figure1_graph.number_of_edges()
        assert transform.network.n == 2 * n
        # (m + n) forward arcs, each paired with a reverse arc.
        assert transform.network.arc_count() == 2 * (m + n)

    def test_flow_values_match_classic_transform(self, figure1_graph):
        from repro.graph.maxflow.dinic import dinic_on_network

        classic = even_transform(figure1_graph)
        classic_network = ResidualNetwork(classic.graph)
        indexed = indexed_even_transform(figure1_graph)
        for source, target in [("a", "i"), ("b", "h"), ("a", "e")]:
            if figure1_graph.has_edge(source, target):
                continue
            classic_network.reset()
            classic_source, classic_target = classic.flow_endpoints(source, target)
            expected = dinic_on_network(
                classic_network,
                classic_network.index_of(classic_source),
                classic_network.index_of(classic_target),
            )
            indexed.network.reset()
            flow_source, flow_target = indexed.flow_endpoint_indices(source, target)
            assert dinic_on_network(
                indexed.network, flow_source, flow_target
            ) == pytest.approx(expected)

    def test_endpoint_index_arithmetic(self, figure1_graph):
        transform = indexed_even_transform(figure1_graph)
        for position, vertex in enumerate(transform.vertices):
            assert transform.target_index(vertex) == 2 * position
            assert transform.source_index(vertex) == 2 * position + 1

    def test_compact_round_trip_preserves_flows(self, figure1_graph):
        from repro.graph.maxflow.dinic import dinic_on_network

        transform = indexed_even_transform(figure1_graph)
        flow_source, flow_target = transform.flow_endpoint_indices("a", "i")
        expected = dinic_on_network(transform.network, flow_source, flow_target)
        thawed = transform.compact().thaw()
        assert thawed.n == transform.network.n
        assert dinic_on_network(thawed, flow_source, flow_target) == pytest.approx(
            expected
        )
        # The thawed copy is independent: resetting one must not leak into
        # the other (the worker-side reuse pattern).
        thawed.reset()
        assert dinic_on_network(thawed, flow_source, flow_target) == pytest.approx(
            expected
        )


# ----------------------------------------------------------------------
# The Even network's arc layout, against the per-arc construction
# ----------------------------------------------------------------------
#: Every array the flow kernel reads, plus the vertex labels.
NETWORK_FIELDS = (
    "n", "heads", "caps", "adjacency", "boundary", "_initial_caps", "_changed",
    "_vertex_of", "_index_of",
)


def triple_list(graph: DiGraph, internal_capacity: float = 1.0):
    """The Even network as one ``(tail, head, capacity)`` triple per arc."""
    index = {v: i for i, v in enumerate(graph.vertices())}
    arcs = [(2 * i, 2 * i + 1, internal_capacity) for i in range(len(index))]
    for source, target, capacity in graph.edges():
        arcs.append((2 * index[source] + 1, 2 * index[target], capacity))
    return arcs


def reference_layout(n, triples):
    """Arc pairs and adjacency lists laid out one triple at a time."""
    heads, caps = [], []
    adjacency = [[] for _ in range(n)]
    for arc, (tail, head, capacity) in enumerate(triples):
        adjacency[tail].append(2 * arc)
        heads += [head, tail]
        caps += [capacity, 0.0]
    boundary = [len(arcs) for arcs in adjacency]
    for arc, (_tail, head, _capacity) in enumerate(triples):
        adjacency[head].append(2 * arc + 1)
    return heads, caps, adjacency, boundary


def arc_list(arcs) -> list:
    """One vertex's arc indices as a list, after checking they are stored as ``array('q')``."""
    assert type(arcs) is array and arcs.typecode == "q", type(arcs)
    return list(arcs)


def arc_lists(network: ResidualNetwork) -> list:
    """Every vertex's arc list, each checked by :func:`arc_list`."""
    return [arc_list(arcs) for arcs in network.adjacency]


def assert_same_network(actual: ResidualNetwork, expected: ResidualNetwork) -> None:
    for name in NETWORK_FIELDS:
        if name == "adjacency":
            assert arc_lists(actual) == arc_lists(expected), name
        else:
            assert getattr(actual, name) == getattr(expected, name), name


def assert_even_layout(graph: DiGraph, network: ResidualNetwork) -> None:
    """The layout spelled out: internal pair i is arcs 2i / 2i+1, edges from 2n."""
    vertices = graph.vertices()
    n = len(vertices)
    edge_arc = {}
    for offset, (source, target, _capacity) in enumerate(graph.edges()):
        edge_arc[source, target] = 2 * n + 2 * offset
    for i, vertex in enumerate(vertices):
        out_arcs = [edge_arc[vertex, target] for target in graph.successors(vertex)]
        in_twins = [edge_arc[source, vertex] + 1 for source in graph.predecessors(vertex)]
        assert arc_list(network.adjacency[2 * i + 1]) == out_arcs + [2 * i + 1]
        assert network.boundary[2 * i + 1] == len(out_arcs)
        assert arc_list(network.adjacency[2 * i]) == [2 * i] + sorted(in_twins)
        assert network.boundary[2 * i] == 1


@st.composite
def edited_graphs(draw):
    """Graphs with fractional capacities and isolated vertices, rows edited after creation."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = draw(st.integers(min_value=0, max_value=25))
    graph = DiGraph()
    graph.add_vertices(rng.sample(range(100), n))
    vertices = graph.vertices()
    for _ in range(rng.randint(0, 4 * n)):
        source, target = rng.choice(vertices), rng.choice(vertices)
        if source != target:
            graph.add_edge(source, target, capacity=rng.choice((0.0, 0.25, 0.5, 1.0, 3.0)))
    for vertex in rng.sample(vertices, n // 4):  # rows rebuilt: edge order != creation order
        graph.replace_successors(vertex, [t for t in rng.sample(vertices, n // 2) if t != vertex])
    if n > 2 and rng.random() < 0.5:
        graph.remove_vertex(rng.choice(vertices))
    return graph


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from((0.0, 0.5, 1.0, 2.0))),
        max_size=30,
    )
)
def test_from_arcs_lays_arcs_out_like_one_triple_at_a_time(triples):
    network = ResidualNetwork.from_arcs(8, triples)
    heads, caps, adjacency, boundary = reference_layout(8, triples)
    assert (network.heads, network.caps, network._initial_caps) == (heads, caps, caps)
    assert (arc_lists(network), network.boundary) == (adjacency, boundary)


@settings(max_examples=150, deadline=None)
@given(edited_graphs(), st.sampled_from((1.0, 2.0, 0.5)))
def test_even_network_is_the_per_arc_network(graph, internal_capacity):
    network = indexed_even_transform(graph, internal_capacity).network
    triples = triple_list(graph, internal_capacity)
    assert_same_network(network, ResidualNetwork.from_arcs(2 * len(graph), triples))
    assert_even_layout(graph, network)


@pytest.mark.parametrize("graph", [
    DiGraph(),
    DiGraph.from_adjacency({"lonely": []}),
    DiGraph.from_adjacency({"x": ["y", "z"], "y": ["z"], "z": ["x"], "w": []}),
], ids=["empty", "isolated", "strings"])
def test_even_network_edge_cases(graph):
    network = indexed_even_transform(graph).network
    assert_same_network(network, ResidualNetwork.from_arcs(2 * len(graph), triple_list(graph)))
    assert_even_layout(graph, network)


def test_snapshot_even_network_is_the_per_arc_network():
    graph = build_connectivity_graph(synthetic_snapshot(2500, 16, seed=42).routing_tables)
    network = indexed_even_transform(graph).network
    assert network.arc_count() == 85_000
    assert_same_network(network, ResidualNetwork.from_arcs(5000, triple_list(graph)))
    assert_even_layout(graph, network)


@settings(max_examples=40, deadline=None)
@given(edited_graphs())
def test_compact_round_trip_keeps_the_layout(graph):
    network = indexed_even_transform(graph).network
    assert_same_network(network.compact().thaw(), network)


def test_identity_labels_keep_no_index_dict():
    graph = DiGraph.from_adjacency({10: [20], 20: [30], 30: [10]})
    plain = ResidualNetwork.from_arcs(3, [(0, 1, 1.0), (1, 2, 1.0)])
    for network in (plain, plain.compact().thaw(), indexed_even_transform(graph).network):
        assert network._index_of is None
        assert network._vertex_of == range(network.n)
        assert [network.index_of(v) for v in range(network.n)] == list(range(network.n))
        assert [network.vertex_of(v) for v in range(network.n)] == list(range(network.n))
        for outside in (-1, network.n, "0", None):
            with pytest.raises(VertexNotFoundError):
                network.index_of(outside)
    labelled = ResidualNetwork.from_arcs(2, [(0, 1, 1.0)], vertex_of=["a", "b"])
    assert (labelled.index_of("b"), labelled.vertex_of(0)) == (1, "a")
    with pytest.raises(VertexNotFoundError):
        labelled.index_of(1)


def test_a_thawed_network_holds_each_vertex_int_and_capacity_float_once():
    # Vertex ids reach past 256, so no two equal ints are one object by
    # accident; unpacking the shipped arrays would make one per arc.
    rng = random.Random(8)
    n = 600
    triples = [
        (rng.randrange(n), rng.randrange(n), rng.choice((0.0, 0.5, 1.0, 2.5)))
        for _ in range(5000)
    ]
    graph = build_connectivity_graph(synthetic_snapshot(400, 8, seed=3).routing_tables)
    flow = network_flow_function("dinic")
    for frozen in (ResidualNetwork.from_arcs(n, triples), indexed_even_transform(graph).network):
        thawed = frozen.compact().thaw()
        assert len(set(map(id, thawed.heads))) <= thawed.n
        assert len(set(map(id, thawed.caps))) <= len(set(thawed.caps))
        assert set(map(id, thawed._initial_caps)) == set(map(id, thawed.caps))
        for _ in range(6):
            source, sink = rng.sample(range(frozen.n), 2)
            frozen.reset()
            thawed.reset()
            assert flow(thawed, source, sink, None) == flow(frozen, source, sink, None)


#: Traced peak bytes per arc on ``synthetic_snapshot(2000, 16, seed=1)``
#: (68 000 arcs), of the Even build and of the build plus its first Dinic
#: flow, on Python 3.10.13 / 3.11.7 / 3.12.1:
#:
#: - one int object per arc id in list arc lists: build 91.6 / 96.5 /
#:   96.5, with the flow 93.4 / 98.2 / 98.2;
#: - the same lists converted to ``array('q')`` after the build: build
#:   70.8 / 71.2 / 71.2 (the ints live until the conversion);
#: - ``array('q')`` arc lists filled directly, identity labels: build
#:   59.7 / 60.2 / 60.2, with the flow 67.1 / 67.9 / 67.9.
BUILD_BYTES_PER_ARC_BOUND = 65
BYTES_PER_ARC_BOUND = 80


def test_even_build_and_first_flow_hold_no_int_per_arc():
    graph = build_connectivity_graph(synthetic_snapshot(2000, 16, seed=1).routing_tables)
    vertices = graph.vertices()
    flow = network_flow_function("dinic")
    gc.collect()
    tracemalloc.start()
    try:
        transform = indexed_even_transform(graph)
        build_peak = tracemalloc.get_traced_memory()[1]
        source, target = transform.flow_endpoint_indices(vertices[0], vertices[1000])
        assert flow(transform.network, source, target, None) == 16.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arcs = transform.network.arc_count()
    assert arcs == 68_000
    assert build_peak / arcs < BUILD_BYTES_PER_ARC_BOUND
    assert peak / arcs < BYTES_PER_ARC_BOUND
