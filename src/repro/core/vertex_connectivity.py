"""Vertex connectivity for vertex pairs and whole graphs (paper Sections 4.3, 4.4).

``kappa(v, w)`` for non-adjacent vertices is the maximum number of pairwise
vertex-disjoint paths from ``v`` to ``w`` (Menger), computed as the max flow
from ``v''`` to ``w'`` in the Even-transformed graph.  The global
connectivity ``kappa(D)`` is the minimum of ``kappa(v, w)`` over all ordered
non-adjacent pairs; a complete graph has ``kappa = n - 1`` by definition.

Computing all ``n (n - 1)`` pairs is expensive — the paper quotes roughly
250 CPU-hours for one 2500-node graph.  Every batch of pairs here runs on
:class:`repro.runtime.pairflow.PairFlowEngine`; the paper's ``c * n``
lowest-degree sampling (Section 5.2) lives in
:class:`repro.core.analyzer.ConnectivityAnalyzer`, which uses the degree
helpers below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from repro.graph.algorithms.components import is_strongly_connected
from repro.graph.digraph import DiGraph
from repro.graph.maxflow import network_flow_function as _flow_function
from repro.graph.transform.even_transform import indexed_even_transform

Vertex = Hashable


@dataclass
class ConnectivityStatistics:
    """Connectivity figures computed from one connectivity graph.

    ``minimum`` is the graph connectivity ``kappa(D)``; ``average`` is the
    mean of the pairwise connectivities over every ordered non-adjacent
    pair — the two quantities plotted as "Min" and "Avg" in the paper's
    figures.  ``min_pair`` is the first pair, in (source, target) vertex
    order, whose connectivity is the minimum.
    """

    minimum: int
    average: float
    pairs_evaluated: int
    vertex_count: int
    edge_count: int
    min_pair: Optional[Tuple[Vertex, Vertex]] = None

    def as_dict(self) -> dict:
        """Return the statistics as a plain dictionary (for reports/JSON)."""
        return {
            "minimum": self.minimum,
            "average": self.average,
            "pairs_evaluated": self.pairs_evaluated,
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "min_pair": self.min_pair,
        }


def pairwise_vertex_connectivity(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    algorithm: str = "dinic",
) -> int:
    """Return ``kappa(source, target)`` for a non-adjacent ordered pair.

    Raises ``ValueError`` when ``source == target`` or when the edge
    ``(source, target)`` exists — Menger's theorem (and hence the max-flow
    reduction) only applies to non-adjacent pairs, and the paper excludes
    adjacent pairs from the graph connectivity for the same reason.
    """
    if source == target:
        raise ValueError("source and target must be distinct")
    if graph.has_edge(source, target):
        raise ValueError(
            "vertex connectivity is undefined for adjacent pairs "
            f"({source!r} -> {target!r} is an edge)"
        )
    flow_fn = _flow_function(algorithm)
    transform = indexed_even_transform(graph)
    flow_source, flow_target = transform.flow_endpoint_indices(source, target)
    value = flow_fn(transform.network, flow_source, flow_target)
    return int(round(value))


def connectivity_statistics(
    graph: DiGraph, algorithm: str = "dinic"
) -> ConnectivityStatistics:
    """Minimum and average ``kappa`` over every ordered non-adjacent pair.

    ``algorithm`` is the max-flow solver (``"dinic"``, ``"push_relabel"``
    or ``"edmonds_karp"``).  An empty or single-vertex graph has
    connectivity 0 and a complete graph ``n - 1``, without a flow; every
    other graph runs :func:`exhaustive_statistics` on a serial
    :class:`~repro.runtime.pairflow.PairFlowEngine`.
    """
    n = graph.number_of_vertices()
    m = graph.number_of_edges()
    if n <= 1:
        return ConnectivityStatistics(
            minimum=0, average=0.0, pairs_evaluated=0, vertex_count=n,
            edge_count=m,
        )
    if graph.is_complete():
        return ConnectivityStatistics(
            minimum=n - 1, average=float(n - 1), pairs_evaluated=0,
            vertex_count=n, edge_count=m,
        )
    # Imported lazily: repro.runtime depends on the experiments layer,
    # which imports this package.
    from repro.runtime.pairflow import PairFlowEngine

    return exhaustive_statistics(PairFlowEngine(graph, algorithm=algorithm))


def exhaustive_statistics(engine) -> ConnectivityStatistics:
    """Evaluate every ordered non-adjacent pair of ``engine.graph`` uncut.

    One :meth:`~repro.runtime.pairflow.PairFlowEngine.evaluate` call per
    source row, so at most ``n - 1`` pairs are held at a time.  Uncut
    values do not depend on what ran before them, so the minimum, total,
    count and first minimum pair in (source, target) vertex order are
    those of one call over all pairs.  ``engine.graph`` must have a
    non-adjacent pair (at least two vertices, not complete).
    """
    graph = engine.graph
    vertices = graph.vertices()
    has_edge = graph.has_edge
    minimum: Optional[int] = None
    min_pair: Optional[Tuple[Vertex, Vertex]] = None
    total = 0
    pairs = 0
    for source in vertices:
        outcome = engine.evaluate(
            [
                (source, target)
                for target in vertices
                if target != source and not has_edge(source, target)
            ]
        )
        if not outcome.pairs_evaluated:
            continue
        total += outcome.total
        pairs += outcome.pairs_evaluated
        if minimum is None or outcome.minimum < minimum:
            minimum = outcome.minimum
            min_pair = outcome.min_pair
    return ConnectivityStatistics(
        minimum=minimum,
        average=total / pairs,
        pairs_evaluated=pairs,
        vertex_count=len(vertices),
        edge_count=graph.number_of_edges(),
        min_pair=min_pair,
    )


def sample_non_adjacent_pairs(
    graph: DiGraph, pair_count: int, rng: random.Random
) -> List[Tuple[Vertex, Vertex]]:
    """Draw up to ``pair_count`` uniform random non-adjacent ordered pairs.

    Rejection-sampled with a bounded number of attempts (so near-complete
    graphs terminate); pairs may repeat, which keeps the estimate of the
    mean pairwise connectivity unbiased.  The ``rng`` consumption depends
    only on the graph structure — never on any flow value — so the same
    stream yields the same pairs whether they are evaluated serially or
    through the batched engine.
    """
    vertices = graph.vertices()
    n = len(vertices)
    if n < 2 or pair_count <= 0:
        return []
    pairs: List[Tuple[Vertex, Vertex]] = []
    attempts = 0
    max_attempts = pair_count * 10
    while len(pairs) < pair_count and attempts < max_attempts:
        attempts += 1
        source = vertices[rng.randrange(n)]
        target = vertices[rng.randrange(n)]
        if source == target or graph.has_edge(source, target):
            continue
        pairs.append((source, target))
    return pairs


def lowest_out_degree_vertices(graph: DiGraph, count: int) -> List[Vertex]:
    """Return the ``count`` vertices with the smallest out-degree."""
    return _lowest(graph.vertices(), graph.out_degrees(), count)


def lowest_in_degree_vertices(graph: DiGraph, count: int) -> List[Vertex]:
    """Return the ``count`` vertices with the smallest in-degree."""
    return _lowest(graph.vertices(), graph.in_degrees(), count)


def _lowest(vertices: List[Vertex], degrees: List[int], count: int) -> List[Vertex]:
    """The ``count`` vertices of least degree, ties in vertex order (stable sort)."""
    order = sorted(range(len(vertices)), key=degrees.__getitem__)
    return [vertices[i] for i in order[:count]]


def global_vertex_connectivity(graph: DiGraph, algorithm: str = "dinic") -> int:
    """Return the graph connectivity ``kappa(D)`` (paper Equation 1).

    The minimum-only entry point.  A graph that is not strongly connected
    has a pair with no path at all, so it is 0 without a flow.  Otherwise
    every source row runs with flows cut off at the running minimum,
    seeded with the degree bound ``min(min out-degree, min in-degree)``:
    a non-complete digraph never has ``kappa(D)`` above it.
    """
    n = graph.number_of_vertices()
    if n <= 1:
        return 0
    if graph.is_complete():
        return n - 1
    if not is_strongly_connected(graph):
        return 0
    from repro.runtime.pairflow import PairFlowEngine

    engine = PairFlowEngine(graph, algorithm=algorithm)
    vertices = graph.vertices()
    minimum = min(graph.min_out_degree(), graph.min_in_degree())
    for source in vertices:
        minimum, _ = engine.minimum_over(
            [source], vertices, initial_minimum=minimum
        )
    return minimum
