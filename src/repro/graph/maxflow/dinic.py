"""Dinic's blocking-flow maximum-flow algorithm, with bidirectional level graphs.

Dinic's algorithm is used as a baseline and as the default engine for the
global-connectivity search because it supports early termination via
``cutoff``: the running minimum of the max flows bounds how much flow we
actually need to find for the next vertex pair (if the flow reaches the
current minimum the pair cannot lower the graph connectivity further).

On unit-capacity graphs — which is exactly what Even's transformation
produces — Dinic runs in :math:`O(E \\sqrt{V})`.

**Level graphs are grown from both ends.**  On routing-table graphs the
source-sink distance is ~6 arcs at branching ~16, so one BFS from the
source labels most of the graph in every phase (and all of it in the last
one, which only proves maximality), while two searches that meet in the
middle label two small balls.  Each phase keeps a forward frontier from
the source over arcs with ``caps[arc] > eps`` and a backward frontier from
the sink over arcs with ``caps[arc ^ 1] > eps``, and always expands the
smaller frontier by one layer.  A layer that finishes without seeing the
other side is *complete*: it labels every unlabelled residual neighbour of
its frontier, so completed forward layers are exactly the distance layers
``dist_s = 0 .. f`` and completed backward layers exactly ``dist_t = 0 ..
b``.  The invariants the kernel relies on:

* *First contact gives the distance.*  While no expanded vertex has seen
  the other side, the two balls are disjoint and no residual arc leads
  from the forward ball into the backward ball, so the distance is at
  least ``f + b + 1``.  The first arc ``u -> v`` that does (``u`` on the
  frontier being expanded, hence ``v`` on the other frontier — had ``v``
  sat in an already expanded layer, that complete expansion would have
  labelled ``u`` or met it) closes a path of exactly ``L = f + b + 1``
  arcs.
* *Every shortest path is fully labelled.*  A vertex at position ``i`` of
  a shortest path has ``dist_s = i`` and ``dist_t = L - i``, so it lies in
  the forward ball when ``i <= f`` and in the backward ball otherwise.
  Levels are unified as ``dist_s`` on the forward side and ``L - dist_t``
  on the backward side.  The half-built layer that made contact holds no
  such vertex (its members are ``f + 1`` from the source but more than
  ``b`` from the sink), so the search stops at the first contact and
  drops that layer.
* *Progress and termination.*  The level graph contains every shortest
  residual path, so a blocking flow on it strictly increases the distance
  as in textbook Dinic, and a phase that met always augments at least
  once.  The loop ends only when a frontier empties without contact —
  the closure of one endpoint is fully labelled and has no arc to the
  other — which is exactly "no residual source-sink path".  When the
  minimum cut sits at an endpoint (``kappa = min(out(s), in(t))``, the
  common case) that proof is the immediate exhaustion of the small side.

Nothing is cleared per phase or per pair: a vertex belongs to the current
phase iff its stamp equals the network's generation, its current-arc
pointer is zeroed when it is labelled, pruning a dead end clears its
stamp, and the arcs of every augmenting path go to the network's undo log
so :meth:`ResidualNetwork.reset` restores only those.

**What a vertex is read through.**  Arcs come in pairs — the arc created
with capacity and its twin, created with 0
(:func:`~repro.graph.maxflow.residual.is_twin`) — and every adjacency list
holds the capacity-bearing arcs first, the twins after, ``boundary[v]``
between them.  The invariant:
*at a vertex no augmenting path has passed since the last* ``reset()``,
*every incident arc is at its initial capacity, so every twin is 0.*
There the forward search and the DFS, which follow ``caps[arc]``, can
qualify only arcs of the first half that were created with capacity, and
the backward search, which follows ``caps[arc ^ 1]``, only twins whose
partner (the arc *entering* the vertex) was; in the Even network that is
1 of ~17 arcs at an incoming copy going forward and 1 of ~17 at an
outgoing copy going backward, and a flow of value ~14 touches ~100 of
5000 vertices.  The network restates those two halves, once, as
per-vertex tuples of the vertices they lead to
(:meth:`~repro.graph.maxflow.residual.ResidualNetwork.head_tuples`):
``out_heads[v]`` holds ``heads[a]`` for each arc ``a`` of the first half,
``in_tails[v]`` ``heads[t]`` for each twin ``t`` of the second, in list
order, so an untouched vertex is read with no slice, no capacity test and
no ``heads`` lookup — the searches iterate a tuple, the DFS indexes it at
``iters[u]`` and fetches the arc only when it advances.

* *Who marks.*  Where a path is appended to the undo log, the kernel sets
  ``_changed[v] = _epoch`` for the source and the head of every path arc —
  both ends of every arc whose pair it is about to change.
* *Who unmarks.*  ``reset()`` advances ``_epoch``, in either branch, which
  invalidates every mark in O(1); a new network starts with none.
* *Marked, or nobody knows.*  A marked vertex is read through its whole
  arc list, with the capacity test — the oracle the tuple read must
  match.  So is every vertex while the undo log is off (``_touched is
  None``: Edmonds-Karp or push-relabel ran since the last ``reset()`` and
  marked nothing) — the kernel then compares marks against epoch 0, which
  all of them reach.  ``full_scans`` counts the whole-list reads of the
  level-graph search.
* *Inert pairs.*  A pair created with capacity 0 never qualifies while
  untouched, so it sits in both tuples as the vertex itself: already
  stamped by the search expanding it (never "met"), and never one level
  above itself (never admissible).  It keeps its position, which is what
  the next point needs.
* *Why positions, not a second list.*  The DFS's current-arc pointer
  ``iters[u]`` must keep meaning the same arc when a path marks ``u`` in
  the middle of a phase.  ``out_heads[u][i]`` is the head of
  ``adjacency[u][i]``, so an untouched vertex's scan ends at the boundary
  and, once marked, resumes past it on the whole list; no pointer is ever
  translated.  (Within that phase it finds nothing there: a twin gains
  capacity only from a path arc, which points one level up, so the twin
  points one level down.  The next phase may need it.)
* *Why initial capacities.*  The tuples describe the state a vertex
  returns to at ``reset()``, so they are built from ``_initial_caps`` —
  also when the first Dinic call follows another solver's flow — and
  nothing changes initial capacities afterwards.

The halves keep their arcs in creation order, so an untouched vertex
offers the same candidates in the same order as a whole-list read would;
only a marked vertex can offer them in another order than a list that
interleaved twins would (twins now come last).  Flow values cannot move;
on the pairs ``tests/runtime/test_kernel_counters.py`` pins, neither do
``phases``, ``augmentations``, ``vertices_labelled``, ``cutoff_hits`` or
``full_scans``.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.maxflow.base import (
    MaxFlowResult,
    register_network_solver,
    register_solver,
)
from repro.graph.maxflow.residual import RESIDUAL_EPS, ResidualNetwork

Vertex = Hashable


def _expand_layer(
    network: ResidualNetwork,
    frontier: List[int],
    backward: bool,
    label: int,
    epoch: int,
) -> Tuple[List[int], bool]:
    """Stamp the unlabelled residual neighbours of ``frontier`` with ``label``.

    The forward search follows arcs leaving the frontier (``caps[arc]``),
    the backward search arcs entering it (``caps[arc ^ 1]``).  A vertex
    whose mark is below ``epoch`` is read through its head tuple
    (``out_heads`` forward, ``in_tails`` backward): the heads that can
    qualify there, in arc order, and the vertex itself for an inert pair,
    which changes nothing.  A marked vertex is read through its whole arc
    list with the capacity test; on an untouched vertex that would yield
    the same heads in the same order (module docstring).  Forward labels
    are distances from the source (``>= 0``), backward labels are
    ``-(distance to the sink) - 1`` (``< 0``), which is how a vertex of
    the other search is recognised.  Returns ``(layer, met)``: the
    vertices newly labelled, and whether an arc into the other search
    was seen — in which case expansion stopped there and ``layer`` is
    incomplete.
    """
    heads = network.heads
    caps = network.caps
    adjacency = network.adjacency
    untouched = network.in_tails if backward else network.out_heads
    changed = network._changed
    levels = network._levels
    iters = network._iters
    stamp = network._stamp
    gen = network._gen
    eps = RESIDUAL_EPS
    flip = int(backward)
    layer: List[int] = []
    append = layer.append
    met = False
    full_scans = 0
    for u in frontier:
        if changed[u] >= epoch:
            full_scans += 1
            ends = [heads[arc] for arc in adjacency[u] if caps[arc ^ flip] > eps]
        else:
            ends = untouched[u]
        for v in ends:
            if stamp[v] != gen:
                stamp[v] = gen
                levels[v] = label
                iters[v] = 0
                append(v)
            elif (levels[v] < 0) != backward:  # labelled by the other search
                met = True
                break
        if met:
            break
    network.full_scans += full_scans
    return layer, met


@register_network_solver("dinic")
def dinic_on_network(
    network: ResidualNetwork,
    source: int,
    sink: int,
    cutoff: Optional[float] = None,
) -> float:
    """Run Dinic on dense vertex indices; mutates the network in place.

    Each phase grows the level graph from both ends (module docstring) and
    then finds a blocking flow with an iterative DFS (an explicit arc path
    instead of recursion — the Even-transformed graphs of large snapshots
    exceed Python's recursion limit) that only enters vertices stamped in
    this phase.  Level, current-arc and stamp arrays are owned by the
    network and never cleared; all hot containers are bound to locals.

    ``cutoff`` contract: the value is exact when below the cutoff and at
    least the cutoff otherwise (exactly ``min(max flow, cutoff)`` on unit
    capacities).  Every augmenting path is appended to the network's undo
    log (when it keeps one) and the kernel counters are updated once, on
    return.
    """
    n = network.n
    if n == 0 or source == sink:
        return 0.0
    if cutoff is not None and cutoff <= 0:
        return 0.0
    heads = network.heads
    caps = network.caps
    adjacency = network.adjacency
    changed = network._changed
    levels, iters = network.scratch_buffers()
    out_heads, _ = network.head_tuples()
    stamp = network._stamp
    gen = network._gen
    touched = network._touched
    # A vertex is read in full iff ``changed[v] >= epoch``: with the log
    # kept that means "marked since the last reset"; without it nothing
    # vouches for any vertex, and every mark reaches 0.
    epoch = network._epoch if touched is not None else 0
    eps = RESIDUAL_EPS
    total = 0.0
    phases = augmentations = labelled = 0
    cut = False
    while not cut:
        # -- level graph: alternate complete BFS layers from both ends ----
        # Stored at once: _expand_layer reads it, and a generation must
        # never be reused, even by the call after an interrupted one.
        network._gen = gen = gen + 1
        stamp[source] = stamp[sink] = gen
        levels[source] = iters[source] = 0
        levels[sink] = -1  # -(distance to the sink) - 1, see _expand_layer
        labelled += 2
        forward = [source]
        backward = [sink]
        sink_side = [sink]  # every vertex of a completed backward layer
        forward_depth = backward_depth = 0
        met = False
        while forward and backward and not met:
            if len(forward) <= len(backward):
                layer, met = _expand_layer(
                    network, forward, False, forward_depth + 1, epoch
                )
                if not met:
                    forward = layer
                    forward_depth += 1
            else:
                layer, met = _expand_layer(
                    network, backward, True, -2 - backward_depth, epoch
                )
                if not met:
                    backward = layer
                    backward_depth += 1
                    sink_side += layer
            labelled += len(layer)
        if not met:
            break  # one side is exhausted: no residual source-sink path
        phases += 1
        pushed_before = augmentations
        # The layer that made contact holds no vertex of a shortest path.
        for v in layer:
            stamp[v] = 0
        shift = forward_depth + backward_depth + 2  # distance L, plus 1
        for v in sink_side:
            levels[v] += shift

        # -- blocking flow: iterative DFS over the stamped level graph ----
        path: List[int] = []  # arcs of the current partial source->u path
        u = source
        while True:
            if u == sink:
                pushed = min(caps[arc] for arc in path)
                if pushed <= eps:
                    # A read that offered a saturated arc; pushing 0
                    # would repeat the same path forever.
                    raise RuntimeError("Dinic: an augmenting path has no residual capacity")
                if touched is not None:
                    touched += path
                    changed[source] = epoch
                    for arc in path:
                        changed[heads[arc]] = epoch
                retreat = 0
                for position, arc in enumerate(path):
                    caps[arc] -= pushed
                    caps[arc ^ 1] += pushed
                    if retreat == 0 and caps[arc] <= eps:
                        retreat = position + 1
                total += pushed
                augmentations += 1
                if cutoff is not None and total >= cutoff:
                    cut = True
                    break
                # Restart from the tail of the first saturated arc.
                del path[max(retreat - 1, 0):]
                u = source if not path else heads[path[-1]]
                continue
            position = iters[u]
            next_level = levels[u] + 1
            if changed[u] >= epoch:
                arcs = adjacency[u]
                degree = len(arcs)
                while position < degree:
                    arc = arcs[position]
                    v = heads[arc]
                    if stamp[v] == gen and levels[v] == next_level and caps[arc] > eps:
                        break
                    position += 1
            else:
                # Untouched: every arc of the first half is at its initial
                # capacity, which the tuple encodes; no twin qualifies.
                ends = out_heads[u]
                degree = len(ends)
                while position < degree:
                    v = ends[position]
                    if stamp[v] == gen and levels[v] == next_level:
                        break
                    position += 1
            iters[u] = position
            if position < degree:
                path.append(adjacency[u][position])
                u = v
            elif u == source:
                if augmentations == pushed_before:
                    # Would loop forever: the same level graph comes back.
                    raise RuntimeError("Dinic: the searches met but no path was found")
                break  # blocking flow complete for this level graph
            else:
                # Dead end: prune u from the level graph and retreat.
                stamp[u] = 0
                path.pop()
                u = source if not path else heads[path[-1]]
                iters[u] += 1
    network.phases += phases
    network.augmentations += augmentations
    network.vertices_labelled += labelled
    network.cutoff_hits += cut
    return total


@register_solver("dinic")
def dinic_max_flow(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    cutoff: Optional[float] = None,
) -> MaxFlowResult:
    """Compute the maximum flow from ``source`` to ``target`` with Dinic."""
    network = ResidualNetwork(graph)
    value = dinic_on_network(
        network, network.index_of(source), network.index_of(target), cutoff=cutoff
    )
    return MaxFlowResult(
        value=value,
        source=source,
        target=target,
        algorithm="dinic",
        augmentations=network.augmentations,
    )
