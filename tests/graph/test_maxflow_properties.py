"""Property-based tests for the max-flow solvers.

The three solvers must agree with each other and with networkx's
``maximum_flow_value`` (used purely as an oracle) on random graphs, and the
max-flow/min-cut duality must hold.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.maxflow import max_flow, network_flow_function
from repro.graph.maxflow.dinic import dinic_on_network
from repro.graph.maxflow.residual import ResidualNetwork, is_twin
from repro.graph.transform.even_transform import indexed_even_transform

ALGORITHMS = ("dinic", "edmonds_karp", "push_relabel")


@st.composite
def random_capacitated_graphs(draw):
    """Random directed graphs with integer capacities plus a (source, sink) pair."""
    n = draw(st.integers(min_value=2, max_value=9))
    density = draw(st.floats(min_value=0.15, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                graph.add_edge(i, j, capacity=rng.randint(1, 10))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    sink = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != source))
    return graph, source, sink


def to_networkx(graph: DiGraph) -> nx.DiGraph:
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(graph.vertices())
    for u, v, capacity in graph.edges():
        nx_graph.add_edge(u, v, capacity=capacity)
    return nx_graph


@settings(max_examples=60, deadline=None)
@given(random_capacitated_graphs())
def test_solvers_agree_with_networkx(case):
    graph, source, sink = case
    expected = nx.maximum_flow_value(to_networkx(graph), source, sink)
    for algorithm in ("push_relabel", "dinic", "edmonds_karp"):
        result = max_flow(graph, source, sink, algorithm=algorithm)
        assert result.value == pytest.approx(expected), algorithm


@settings(max_examples=40, deadline=None)
@given(random_capacitated_graphs())
def test_max_flow_equals_min_cut(case):
    """Max-flow/min-cut duality on the residual network after Dinic."""
    graph, source, sink = case
    network = ResidualNetwork(graph)
    value = dinic_on_network(
        network, network.index_of(source), network.index_of(sink)
    )
    reachable = {
        network.vertex_of(i)
        for i in network.min_cut_reachable(network.index_of(source))
    }
    cut_capacity = sum(
        capacity
        for u, v, capacity in graph.edges()
        if u in reachable and v not in reachable
    )
    assert value == pytest.approx(cut_capacity)


@settings(max_examples=40, deadline=None)
@given(random_capacitated_graphs())
def test_flow_bounded_by_degrees(case):
    """Flow can never exceed the total capacity leaving the source or entering the sink."""
    graph, source, sink = case
    out_capacity = sum(
        graph.capacity(source, succ) for succ in graph.successors(source)
    )
    in_capacity = sum(graph.capacity(pred, sink) for pred in graph.predecessors(sink))
    result = max_flow(graph, source, sink, algorithm="dinic")
    assert result.value <= out_capacity + 1e-9
    assert result.value <= in_capacity + 1e-9


@st.composite
def unit_digraphs_with_pair(draw):
    """Random unit-capacity digraphs plus a non-adjacent (source, target) pair."""
    n = draw(st.integers(min_value=3, max_value=9))
    density = draw(st.floats(min_value=0.2, max_value=0.7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                graph.add_edge(i, j)
    non_adjacent = [
        (v, w)
        for v in range(n)
        for w in range(n)
        if v != w and not graph.has_edge(v, w)
    ]
    if not non_adjacent:
        graph.remove_edge(0, 1)
        non_adjacent = [(0, 1)]
    pair = draw(st.sampled_from(non_adjacent))
    return graph, pair


@settings(max_examples=40, deadline=None)
@given(unit_digraphs_with_pair())
def test_all_algorithms_respect_cutoffs_identically(case):
    """On unit Even-transformed graphs, every solver returns exactly
    ``min(max flow, cutoff)`` for integer cutoffs — the contract the
    sharded minimum pass relies on for exactness."""
    graph, (source, target) = case
    transform = indexed_even_transform(graph)
    network = transform.network
    flow_source, flow_target = transform.flow_endpoint_indices(source, target)
    network.reset()
    exact = int(round(dinic_on_network(network, flow_source, flow_target)))
    for algorithm in ALGORITHMS:
        flow_fn = network_flow_function(algorithm)
        for cutoff in range(1, exact + 3):
            network.reset()
            value = int(round(
                flow_fn(network, flow_source, flow_target, cutoff=float(cutoff))
            ))
            assert value == min(exact, cutoff), (algorithm, cutoff, exact)
        # Non-positive cutoffs short-circuit identically.
        network.reset()
        assert flow_fn(network, flow_source, flow_target, cutoff=0.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(random_capacitated_graphs())
def test_flow_conservation(case):
    """Net flow out of every intermediate vertex is zero (checked via Dinic arcs)."""
    graph, source, sink = case
    network = ResidualNetwork(graph)
    dinic_on_network(network, network.index_of(source), network.index_of(sink))
    net_flow = [0.0] * network.n
    for vertex_index in range(network.n):
        # The arcs created with capacity: the first half of every list.
        for arc in network.adjacency[vertex_index][:network.boundary[vertex_index]]:
            assert not is_twin(arc)
            flow = network.flow_on_arc(arc)
            net_flow[vertex_index] -= flow
            net_flow[network.heads[arc]] += flow
    for vertex_index in range(network.n):
        vertex = network.vertex_of(vertex_index)
        if vertex in (source, sink):
            continue
        assert net_flow[vertex_index] == pytest.approx(0.0, abs=1e-9)
