"""Connectivity-graph construction (paper Section 4.2).

A snapshot of the network at time ``t`` is a mapping
``node id -> list of routing-table contact ids`` over the nodes that are
alive at ``t``.  The connectivity graph ``D(V, E)`` has one vertex per alive
node and a directed edge ``(v, w)`` exactly when ``w`` appears in ``v``'s
routing table *and* ``w`` is itself alive — edges pointing at departed nodes
cannot carry any communication, so they are not part of the graph, matching
how the paper builds graphs from snapshots of the current network.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.graph.digraph import DiGraph


def build_connectivity_graph(
    routing_tables: Mapping[int, Sequence[int]],
    alive_nodes: Iterable[int] = None,
) -> DiGraph:
    """Build the connectivity graph from routing-table contents.

    Parameters
    ----------
    routing_tables:
        ``node id -> contact ids`` for every node to include as a vertex.
    alive_nodes:
        Optional explicit vertex set.  Defaults to the keys of
        ``routing_tables``.  Contacts outside this set are ignored (they
        refer to nodes that already left the network).

    Returns
    -------
    DiGraph
        The directed connectivity graph with capacity 1 on every edge.
        Nodes with no (alive) contacts still appear as isolated vertices.

    A row is checked with two C-level scans (does it name its own node, or
    a node outside the vertex set?) and filtered contact by contact only
    when it does; :meth:`DiGraph.from_adjacency` then builds, in bulk, the
    graph an ``add_edge`` per contact would build — vertex, row and
    predecessor order included (an alive contact without a table of its
    own joins after every table, in first-mention order).
    """
    vertex_set = set(routing_tables) if alive_nodes is None else set(alive_nodes)
    rows: Dict[int, Sequence[int]] = {}
    for node_id, contacts in routing_tables.items():
        if node_id not in vertex_set:
            continue
        if node_id in contacts or not vertex_set.issuperset(contacts):
            contacts = [
                contact_id
                for contact_id in contacts
                if contact_id != node_id and contact_id in vertex_set
            ]
        rows[node_id] = contacts
    return DiGraph.from_adjacency(rows, capacity=1.0)


def connectivity_graph_from_protocols(protocols: Iterable) -> DiGraph:
    """Build the connectivity graph directly from live protocol objects.

    ``protocols`` is an iterable of :class:`repro.kademlia.protocol.KademliaProtocol`
    instances (one per alive node); this is the convenience entry point used
    by the examples when no snapshot file is involved.
    """
    tables: Dict[int, List[int]] = {
        protocol.node_id: protocol.routing_table_snapshot() for protocol in protocols
    }
    return build_connectivity_graph(tables)


def disconnected_vertices(graph: DiGraph) -> List[int]:
    """Return vertices that cannot possibly lie on any cycle of communication.

    A vertex with out-degree 0 cannot reach anyone; a vertex with in-degree 0
    cannot be reached.  Either condition forces the global vertex
    connectivity to 0, and the paper traces its zero-connectivity setups to
    exactly such nodes ("they themselves only appear in the routing tables
    of less than k other nodes or none at all", Section 5.5.1).
    """
    pred = graph.predecessor_rows()
    return [
        vertex
        for vertex, row in graph.successor_rows().items()
        if not row or not pred[vertex]
    ]
