"""Path extraction helpers.

``vertex_disjoint_paths`` makes Menger's theorem tangible: it decomposes a
max flow on the Even-transformed graph back into concrete node-disjoint
paths of the original graph.  The examples use it to show *which* redundant
routes exist between two Kademlia nodes, and the tests use it to verify that
the number of recovered paths equals the computed connectivity.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional

from repro.graph.digraph import DiGraph
from repro.graph.maxflow.residual import ResidualNetwork, is_twin
from repro.graph.maxflow.dinic import dinic_on_network
from repro.graph.transform.even_transform import even_transform

Vertex = Hashable


def shortest_path(graph: DiGraph, source: Vertex, target: Vertex) -> Optional[List[Vertex]]:
    """Return a shortest (hop-count) path from ``source`` to ``target``.

    Returns ``None`` when ``target`` is unreachable.
    """
    if source == target:
        return [source]
    parents: Dict[Vertex, Vertex] = {source: source}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for successor in graph.successors(vertex):
            if successor in parents:
                continue
            parents[successor] = vertex
            if successor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(successor)
    return None


def vertex_disjoint_paths(
    graph: DiGraph, source: Vertex, target: Vertex
) -> List[List[Vertex]]:
    """Return a maximum set of internally vertex-disjoint source→target paths.

    The paths are recovered by running a unit-capacity max flow on the
    Even-transformed graph and then tracing flow-carrying arcs.  If
    ``target`` is a direct successor of ``source`` the direct edge is
    returned as one of the paths (it is trivially disjoint from the rest).
    """
    if source == target:
        raise ValueError("source and target must be distinct")
    transform = even_transform(graph)
    flow_source, flow_target = transform.flow_endpoints(source, target)
    network = ResidualNetwork(transform.graph)
    dinic_on_network(
        network, network.index_of(flow_source), network.index_of(flow_target)
    )

    # Build a successor map restricted to arcs that carry flow.
    flow_successors: Dict[Vertex, List[Vertex]] = {}
    for vertex_index in range(network.n):
        vertex = network.vertex_of(vertex_index)
        for arc in network.adjacency[vertex_index]:
            if is_twin(arc):
                continue
            if network.flow_on_arc(arc) > 0.5:
                flow_successors.setdefault(vertex, []).append(
                    network.vertex_of(network.heads[arc])
                )

    # Trace paths in the transformed graph, then collapse split vertices.
    incoming_of = {v_in: orig for orig, v_in in transform.incoming.items()}
    outgoing_of = {v_out: orig for orig, v_out in transform.outgoing.items()}
    paths: List[List[Vertex]] = []
    while flow_successors.get(flow_source):
        current = flow_successors[flow_source].pop()
        collapsed = [source]
        while current != flow_target:
            if current in incoming_of:
                original = incoming_of[current]
                if collapsed[-1] != original:
                    collapsed.append(original)
            elif current in outgoing_of:
                original = outgoing_of[current]
                if collapsed[-1] != original:
                    collapsed.append(original)
            successors = flow_successors.get(current, [])
            if not successors:
                collapsed = []
                break
            current = successors.pop()
        if collapsed:
            collapsed.append(target)
            paths.append(collapsed)
    return paths
