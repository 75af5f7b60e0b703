"""Edmonds-Karp (shortest augmenting path) maximum flow.

This is the simplest correct max-flow algorithm — BFS augmenting paths on
the residual network — and serves as a readable oracle for the faster
solvers in tests and as a baseline in the algorithm ablation benchmark.
Complexity :math:`O(V E^2)`.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, List, Optional

from repro.graph.digraph import DiGraph
from repro.graph.maxflow.base import (
    MaxFlowResult,
    register_network_solver,
    register_solver,
)
from repro.graph.maxflow.residual import RESIDUAL_EPS, ResidualNetwork

Vertex = Hashable
_INF = float("inf")


def _find_augmenting_path(
    network: ResidualNetwork,
    source: int,
    sink: int,
    parent_arc: List[int],
    bottleneck: List[float],
) -> float:
    """BFS for an augmenting path; returns its bottleneck (0 if none)."""
    for i in range(network.n):
        parent_arc[i] = -1
        bottleneck[i] = 0.0
    parent_arc[source] = -2
    bottleneck[source] = _INF
    queue = deque([source])
    popleft = queue.popleft
    append = queue.append
    heads = network.heads
    caps = network.caps
    adjacency = network.adjacency
    eps = RESIDUAL_EPS
    while queue:
        u = popleft()
        slack = bottleneck[u]
        for arc in adjacency[u]:
            v = heads[arc]
            if parent_arc[v] == -1 and caps[arc] > eps:
                parent_arc[v] = arc
                capacity = caps[arc]
                bottleneck[v] = slack if slack < capacity else capacity
                if v == sink:
                    return bottleneck[v]
                append(v)
    return 0.0


def edmonds_karp_on_network(
    network: ResidualNetwork,
    source: int,
    sink: int,
    cutoff: Optional[float] = None,
) -> tuple:
    """Run Edmonds-Karp on dense indices; returns (flow value, iterations).

    The parent-arc work array is the network's preallocated scratch
    buffer, so repeated pair queries on one network do not churn
    allocations (the same reuse pattern as :func:`dinic_on_network`).
    """
    if network.n == 0 or source == sink:
        return 0.0, 0
    if cutoff is not None and cutoff <= 0:
        return 0.0, 0
    network._touched = None  # no undo log kept: the next reset() copies all
    heads = network.heads
    caps = network.caps
    total = 0.0
    iterations = 0
    parent_arc, _ = network.scratch_buffers()
    bottleneck = [0.0] * network.n
    while True:
        pushed = _find_augmenting_path(network, source, sink, parent_arc, bottleneck)
        if pushed <= RESIDUAL_EPS:
            break
        iterations += 1
        # Walk back from the sink applying the bottleneck.
        v = sink
        while v != source:
            arc = parent_arc[v]
            caps[arc] -= pushed
            caps[arc ^ 1] += pushed
            v = heads[arc ^ 1]
        total += pushed
        if cutoff is not None and total >= cutoff:
            break
    return total, iterations


@register_network_solver("edmonds_karp")
def _edmonds_karp_value(
    network: ResidualNetwork,
    source: int,
    sink: int,
    cutoff: Optional[float] = None,
) -> float:
    """Dense-index entry point returning only the flow value."""
    return edmonds_karp_on_network(network, source, sink, cutoff=cutoff)[0]


@register_solver("edmonds_karp")
def edmonds_karp_max_flow(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    cutoff: Optional[float] = None,
) -> MaxFlowResult:
    """Compute the maximum flow from ``source`` to ``target`` (Edmonds-Karp)."""
    network = ResidualNetwork(graph)
    value, iterations = edmonds_karp_on_network(
        network, network.index_of(source), network.index_of(target), cutoff=cutoff
    )
    return MaxFlowResult(
        value=value,
        source=source,
        target=target,
        algorithm="edmonds_karp",
        augmentations=iterations,
    )
