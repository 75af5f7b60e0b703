"""Tests for connectivity-graph construction.

The graph is built in bulk from whole rows (``DiGraph.from_adjacency``);
the per-edge build it replaced is kept below as the oracle, compared on
vertex order, row order and predecessor order.
"""

import gc
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import synthetic_snapshot
from repro.core.connectivity_graph import (
    build_connectivity_graph,
    connectivity_graph_from_protocols,
    disconnected_vertices,
)
from repro.core.vertex_connectivity import (
    lowest_in_degree_vertices,
    lowest_out_degree_vertices,
)
from repro.graph.algorithms.components import is_strongly_connected
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.kademlia.config import KademliaConfig
from repro.kademlia.protocol import KademliaProtocol
from repro.runtime.pairflow import PairFlowEngine


class TestBuildConnectivityGraph:
    def test_vertices_match_alive_nodes(self):
        graph = build_connectivity_graph({1: [2], 2: [1], 3: []})
        assert sorted(graph.vertices()) == [1, 2, 3]
        assert graph.has_edge(1, 2) and graph.has_edge(2, 1)
        assert graph.out_degree(3) == 0

    def test_edges_to_departed_nodes_dropped(self):
        """Contacts pointing at nodes outside the alive set are ignored."""
        graph = build_connectivity_graph({1: [2, 99], 2: [1]})
        assert not graph.has_vertex(99)
        assert graph.out_degree(1) == 1

    def test_explicit_alive_set_filters_vertices(self):
        tables = {1: [2, 3], 2: [1], 3: [1]}
        graph = build_connectivity_graph(tables, alive_nodes=[1, 2])
        assert sorted(graph.vertices()) == [1, 2]
        assert not graph.has_edge(1, 3)

    def test_self_references_ignored(self):
        graph = build_connectivity_graph({1: [1, 2], 2: []})
        assert not graph.has_edge(1, 1)
        assert graph.has_edge(1, 2)

    def test_unit_capacities(self):
        graph = build_connectivity_graph({1: [2], 2: [1]})
        assert graph.capacity(1, 2) == 1.0

    def test_empty_snapshot(self):
        graph = build_connectivity_graph({})
        assert graph.number_of_vertices() == 0

    def test_from_protocols(self):
        config = KademliaConfig(bit_length=16, bucket_size=4)
        protocols = [KademliaProtocol(node_id, config) for node_id in (1, 2, 3)]
        protocols[0].routing_table.add_contact(2, 0.0)
        protocols[1].routing_table.add_contact(3, 0.0)
        graph = connectivity_graph_from_protocols(protocols)
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 3)
        assert graph.number_of_vertices() == 3


class TestDisconnectedVertices:
    def test_detects_sinks_and_sources(self):
        graph = build_connectivity_graph({1: [2], 2: [1], 3: [1], 4: []})
        # 3 has in-degree 0 (nobody lists it); 4 has out-degree 0 and in-degree 0.
        assert set(disconnected_vertices(graph)) == {3, 4}

    def test_none_for_mutual_knowledge(self):
        graph = build_connectivity_graph({1: [2], 2: [1]})
        assert disconnected_vertices(graph) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_is_the_per_vertex_degree_test(self, seed):
        rng = random.Random(seed)
        graph = random_digraph(rng.randint(1, 30), rng.choice((0.02, 0.08, 0.3)), rng)
        assert disconnected_vertices(graph) == [
            v for v in graph.vertices() if graph.out_degree(v) == 0 or graph.in_degree(v) == 0
        ]


# ----------------------------------------------------------------------
# The bulk build against the per-edge build it replaced
# ----------------------------------------------------------------------
def reference_connectivity_graph(routing_tables, alive_nodes=None) -> DiGraph:
    """The connectivity graph built one ``add_vertex`` / ``add_edge`` at a time."""
    vertex_set = set(routing_tables) if alive_nodes is None else set(alive_nodes)
    graph = DiGraph()
    for node_id in routing_tables:
        if node_id in vertex_set:
            graph.add_vertex(node_id)
    for node_id, contacts in routing_tables.items():
        if node_id not in vertex_set:
            continue
        for contact_id in contacts:
            if contact_id == node_id or contact_id not in vertex_set:
                continue
            graph.add_edge(node_id, contact_id, capacity=1.0)
    return graph


def reference_from_adjacency(adjacency, capacity=1.0, allow_self_loops=False) -> DiGraph:
    """``DiGraph.from_adjacency`` as one ``add_vertex`` / ``add_edge`` per entry."""
    graph = DiGraph(allow_self_loops=allow_self_loops)
    graph.add_vertices(adjacency)
    for source, targets in adjacency.items():
        for target in targets:
            graph.add_edge(source, target, capacity=capacity)
    return graph


def layout(graph: DiGraph):
    """Everything order-sensitive about a graph: vertices, rows, predecessor rows."""
    return (
        graph.vertices(),
        [(vertex, list(row.items())) for vertex, row in graph.successor_rows().items()],
        [(vertex, list(row.items())) for vertex, row in graph.predecessor_rows().items()],
    )


def outcome(build, *args):
    """The layout a build produced, or the exception it raised."""
    try:
        return layout(build(*args))
    except Exception as error:  # compared below, not swallowed
        return type(error), error.args


#: Node ids of three kinds, as snapshots from different overlays carry them.
node_ids = st.one_of(
    st.integers(min_value=0, max_value=15),
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(["x", "y"])),
)


@st.composite
def snapshots(draw):
    """Routing tables naming dead nodes, their own node and repeats, plus an alive set."""
    keys = draw(st.lists(node_ids, unique=True, max_size=12))
    universe = keys + draw(st.lists(node_ids, max_size=4))  # the second part: departed
    tables = {key: draw(st.lists(st.sampled_from(universe), max_size=10)) for key in keys}
    alive = None
    if universe and draw(st.booleans()):
        alive = draw(st.lists(st.sampled_from(universe), max_size=len(universe) + 2))
    return tables, alive


@settings(max_examples=300, deadline=None)
@given(snapshots())
@example(({}, None))
@example(({1: [], 2: []}, None))
@example(({1: [1, 2, 2, 9], 2: [1, 1]}, None))
@example(({1: [9, 2, 7], 2: [7, 1]}, [1, 2, 7, 9]))
@example(({"a": ["b", (1, "x")], (1, "x"): ["a", "a"], "b": []}, ["a", (1, "x")]))
def test_bulk_build_is_the_per_edge_build(case):
    tables, alive = case
    assert layout(build_connectivity_graph(tables, alive_nodes=alive)) == layout(
        reference_connectivity_graph(tables, alive_nodes=alive)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(node_ids, st.lists(node_ids, max_size=6), max_size=8),
    st.sampled_from([1.0, 0.5, 0.0, -1.0]),
    st.booleans(),
)
@example({1: [5, 2], 2: [], 3: [5, 1, 7]}, 1.0, False)
@example({1: [2], 2: [2]}, 1.0, False)
@example({1: [1]}, -1.0, False)
@example({1: [1]}, 2.0, True)
def test_from_adjacency_is_the_per_edge_build(adjacency, capacity, allow_self_loops):
    # Targets that are not keys join after the keys, in first-mention
    # order; self-loops and negative capacities fail with the error
    # add_edge raises first.
    assert outcome(DiGraph.from_adjacency, adjacency, capacity, allow_self_loops) == outcome(
        reference_from_adjacency, adjacency, capacity, allow_self_loops
    )


def test_from_adjacency_reads_each_row_once():
    graph = DiGraph.from_adjacency({1: iter([2, 3]), 2: iter([1]), 3: iter([])})
    assert layout(graph) == layout(reference_from_adjacency({1: [2, 3], 2: [1], 3: []}))


def test_alive_contacts_without_a_table_join_after_every_table():
    graph = build_connectivity_graph({1: [9, 2, 7], 2: [7, 1]}, alive_nodes=[1, 2, 7, 9])
    assert graph.vertices() == [1, 2, 9, 7]
    assert graph.predecessors(7) == [1, 2]


def test_snapshot_build_never_adds_an_edge_at_a_time(monkeypatch):
    tables = synthetic_snapshot(500, contacts_per_node=16, seed=3).routing_tables
    expected = layout(reference_connectivity_graph(tables))

    def refuse(*args, **kwargs):
        raise AssertionError("per-edge construction on the bulk path")

    monkeypatch.setattr(DiGraph, "add_edge", refuse)
    monkeypatch.setattr(DiGraph, "add_vertex", refuse)
    graph = build_connectivity_graph(tables)
    assert graph.number_of_edges() == 500 * 16
    assert layout(graph) == expected


# ----------------------------------------------------------------------
# A count, not a timing: no Python call per edge before the first flow
# ----------------------------------------------------------------------
def python_calls_before_first_flow(tables) -> int:
    """Python-level calls (frames entered or resumed) from rows to a ready engine."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # Finalizers run by a garbage-collection pass in between are not
    # calls of this path: collect first and hold the collector off.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        graph = build_connectivity_graph(tables)
        disconnected_vertices(graph)
        is_strongly_connected(graph)
        graph.symmetry_ratio()
        lowest_out_degree_vertices(graph, 8)
        lowest_in_degree_vertices(graph, 8)
        PairFlowEngine(graph)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def test_python_calls_do_not_grow_with_the_edges():
    sparse = synthetic_snapshot(400, contacts_per_node=4, seed=1).routing_tables
    dense = synthetic_snapshot(400, contacts_per_node=40, seed=1).routing_tables
    dense_edges = sum(map(len, dense.values()))
    sparse_calls = python_calls_before_first_flow(sparse)
    dense_calls = python_calls_before_first_flow(dense)
    # Ten times the edges, the same calls: what is left is per vertex or
    # per step.  One add_edge or generator step per edge would add 14 400.
    assert dense_calls == sparse_calls
    assert dense_calls * 10 < dense_edges
