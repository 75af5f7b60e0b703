"""Highest-label push-relabel maximum flow (the HIPR substitute).

The paper computes max flows with HIPR, the hi-level (highest-label) variant
of the push-relabel algorithm described by Cherkassky & Goldberg, "On
implementing push-relabel method for the maximum flow problem" (IPCO 1995).
This module reimplements that variant in pure Python with the two standard
heuristics that make it fast in practice:

* **gap heuristic** — if no vertex has label ``h`` any more, every vertex
  with a label in ``(h, n)`` can be lifted straight to ``n + 1`` because it
  can no longer reach the sink;
* **global relabeling** — periodically recompute exact distance labels with
  a reverse BFS from the sink.

Worst-case complexity is :math:`O(n^2 \\sqrt{m})`, matching the figure the
paper quotes for HIPR.
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

#: Trigger a global relabel after this many relabel operations, expressed as
#: a multiple of the vertex count.  HIPR uses a similar frequency rule.
_GLOBAL_RELABEL_FREQUENCY = 1.0


def _global_relabel(
    network: ResidualNetwork, labels: List[int], sink: int, source: int
) -> None:
    """Recompute exact distance-to-sink labels with a reverse BFS."""
    n = network.n
    heads = network.heads
    caps = network.caps
    adjacency = network.adjacency
    eps = RESIDUAL_EPS
    for v in range(n):
        labels[v] = 2 * n
    labels[sink] = 0
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        next_label = labels[v] + 1
        for arc in adjacency[v]:
            # Arc ``arc`` goes v -> u; flow could be pushed u -> v iff the
            # reverse arc (arc ^ 1) has residual capacity.
            u = heads[arc]
            if caps[arc ^ 1] > eps and labels[u] > next_label:
                labels[u] = next_label
                queue.append(u)
    labels[source] = n


@register_network_solver("push_relabel")
def push_relabel_on_network(
    network: ResidualNetwork,
    source: int,
    sink: int,
    cutoff: Optional[float] = None,
) -> float:
    """Run highest-label push-relabel on ``network`` (dense indices).

    The network's residual capacities are mutated in place; callers that
    reuse the network must call :meth:`ResidualNetwork.reset` afterwards.
    Returns the max-flow value.

    ``cutoff`` enables the same early exit as the augmenting-path solvers:
    push-relabel does not build the flow path-by-path, but the excess that
    has arrived at the sink is a monotonically non-decreasing lower bound
    on the final flow value, so once ``excess[sink] >= cutoff`` the search
    stops and returns that excess.  On the unit-capacity Even-transformed
    graphs of the connectivity analysis every push into the sink carries at
    most one unit, so the returned value equals ``min(max flow, cutoff)``
    for integer cutoffs — identical to Dinic and Edmonds-Karp.
    """
    n = network.n
    if n == 0 or source == sink:
        return 0.0
    if cutoff is not None and cutoff <= 0:
        return 0.0
    network._touched = None  # no undo log kept: the next reset() copies all
    heads = network.heads
    caps = network.caps
    adjacency = network.adjacency
    eps = RESIDUAL_EPS

    excess: List[float] = [0.0] * n
    labels: List[int] = [0] * n
    current_arc: List[int] = [0] * n

    _global_relabel(network, labels, sink, source)

    # Buckets of active vertices by label (highest-label selection).
    buckets: List[List[int]] = [[] for _ in range(2 * n + 1)]
    in_bucket: List[bool] = [False] * n
    highest = 0

    def activate(v: int) -> None:
        nonlocal highest
        if v == source or v == sink or in_bucket[v] or excess[v] <= eps:
            return
        label = labels[v]
        if label >= len(buckets):
            return
        buckets[label].append(v)
        in_bucket[v] = True
        if label > highest:
            highest = label

    # Saturate all source arcs.
    for arc in adjacency[source]:
        capacity = caps[arc]
        if capacity <= eps:
            continue
        v = heads[arc]
        caps[arc] -= capacity
        caps[arc ^ 1] += capacity
        excess[v] += capacity
        excess[source] -= capacity
        activate(v)
    if cutoff is not None and excess[sink] >= cutoff:
        return excess[sink]

    # Count of vertices per label, for the gap heuristic.
    label_count: List[int] = [0] * (2 * n + 1)
    for v in range(n):
        label_count[min(labels[v], 2 * n)] += 1

    relabels_since_global = 0
    relabel_limit = max(1, int(_GLOBAL_RELABEL_FREQUENCY * n))
    work = 0

    while highest >= 0:
        if not buckets[highest]:
            highest -= 1
            continue
        v = buckets[highest].pop()
        in_bucket[v] = False
        if excess[v] <= eps or v == source or v == sink:
            continue

        arcs = adjacency[v]
        degree = len(arcs)
        while excess[v] > eps:
            if current_arc[v] >= degree:
                # Relabel v: find the minimum admissible label.
                old_label = labels[v]
                min_label = 2 * n
                for arc in arcs:
                    if caps[arc] > eps:
                        candidate = labels[heads[arc]] + 1
                        if candidate < min_label:
                            min_label = candidate
                label_count[min(old_label, 2 * n)] -= 1
                labels[v] = min_label
                label_count[min(min_label, 2 * n)] += 1
                current_arc[v] = 0
                relabels_since_global += 1
                work += degree

                # Gap heuristic: the old label became empty.
                if (
                    old_label < n
                    and label_count[old_label] == 0
                ):
                    for u in range(n):
                        if old_label < labels[u] < n and u != source:
                            label_count[min(labels[u], 2 * n)] -= 1
                            labels[u] = n + 1
                            label_count[min(labels[u], 2 * n)] += 1
                if labels[v] >= 2 * n:
                    break
                if relabels_since_global >= relabel_limit:
                    _global_relabel(network, labels, sink, source)
                    label_count = [0] * (2 * n + 1)
                    for u in range(n):
                        label_count[min(labels[u], 2 * n)] += 1
                    current_arc = [0] * n
                    relabels_since_global = 0
                continue

            arc = arcs[current_arc[v]]
            if caps[arc] > eps and labels[v] == labels[heads[arc]] + 1:
                # Push.
                u = heads[arc]
                delta = min(excess[v], caps[arc])
                caps[arc] -= delta
                caps[arc ^ 1] += delta
                excess[v] -= delta
                excess[u] += delta
                if u == sink and cutoff is not None and excess[sink] >= cutoff:
                    return excess[sink]
                activate(u)
            else:
                current_arc[v] += 1

        # A vertex that left the inner loop with excess did so because its
        # label reached 2n, i.e. it can no longer reach the sink; its excess
        # is stranded and does not affect the flow into the sink, so it is
        # intentionally not reactivated.

    return excess[sink]


@register_solver("push_relabel")
def push_relabel_max_flow(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    cutoff: Optional[float] = None,
) -> MaxFlowResult:
    """Compute the maximum flow from ``source`` to ``target``.

    ``cutoff`` stops the search once at least that much flow has reached
    the sink (see :func:`push_relabel_on_network`).
    """
    network = ResidualNetwork(graph)
    value = push_relabel_on_network(
        network, network.index_of(source), network.index_of(target), cutoff=cutoff
    )
    return MaxFlowResult(
        value=value, source=source, target=target, algorithm="push_relabel"
    )
