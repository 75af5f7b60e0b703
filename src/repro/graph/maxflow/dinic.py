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
  The half-built layer that made contact holds no such vertex (its
  members are ``f + 1`` from the source but more than ``b`` from the
  sink), so the search stops at the first contact and drops that layer.
* *Labels stay as the search wrote them.*  A forward vertex is labelled
  ``dist_s`` (``>= 0``), a backward one ``-1 - dist_t`` (``< 0``, the sink
  ``-1``), and nothing rewrites them once the searches met.  The level
  graph's arcs go from label ``x`` to ``x + 1`` on either side, and from
  the forward frontier to the backward one: the DFS reads the next level
  ``f + 1`` as ``-1 - b``.  Every path of the level graph has ``L`` arcs;
  the DFS raises on a longer one rather than go round the cycle a wrong
  label would close.
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
pointer is zeroed when it is labelled, pruning a dead end or closing a
single exit (below) clears its stamp, and the arcs of every augmenting
path go to the network's undo log so :meth:`ResidualNetwork.reset`
restores only those.

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
* *Single exits.*  An untouched vertex ``v`` other than the sink whose
  tuple ``out_heads[v]`` holds exactly one head ``w`` has one way on.
  When the DFS's scan of an untouched ``u`` offers such a ``v``, it
  decides ``v`` from ``u`` instead of entering it: if ``w`` is stamped at
  ``v``'s next level both arcs join the path and the DFS goes on from
  ``w``; otherwise ``v`` is unstamped and the scan of ``u`` moves on.
  Entering ``v`` would have read the same tuple from position 0 and done
  the same, one loop turn later: a stamped, unmarked ``v`` was never
  entered in this phase (the DFS leaves a vertex it entered only by a
  path through it, which marks it, or by pruning it), so its pointer is
  still 0.  The sink is always entered, as it ends a path; an inert exit
  (``w`` is ``v`` itself) is never one level up, so it closes ``v``.  In
  the Even network every untouched in-copy is such a vertex, its one
  exit the arc to its out-copy.  The retreat is decided the same way:
  when ``w`` turns out a dead end, an untouched ``v`` on the path with
  ``boundary[v] == 1`` has no second way on, so it is pruned in the same
  turn instead of being re-entered only to be pruned.
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


def _level_graph(
    network: ResidualNetwork, source: int, sink: int, epoch: int
) -> Tuple[bool, int, int, int]:
    """Grow one phase's level graph from both ends (module docstring).

    Stamps ``source`` and ``sink`` with a new generation, then expands the
    smaller frontier by one complete layer at a time: the forward search
    follows arcs leaving its frontier (``caps[arc]``), the backward search
    arcs entering it (``caps[arc ^ 1]``).  A vertex whose mark is below
    ``epoch`` is read through its head tuple (``out_heads`` forward,
    ``in_tails`` backward): the heads that can qualify there, in arc
    order, and the vertex itself for an inert pair, which changes nothing.
    A marked vertex is read through its whole arc list with the capacity
    test; on an untouched vertex that would yield the same heads in the
    same order.  Forward labels are distances from the source (``>= 0``),
    backward labels ``-(distance to the sink) - 1`` (``< 0``), which is how
    a vertex of the other search is recognised.  The search stops at the
    first arc into the other search and unstamps the layer it was growing.

    Returns ``(met, f, b, labelled)``: whether the searches met, the
    depths of the last complete forward and backward layers, and how many
    vertices were stamped, the unstamped contact layer included.
    """
    heads = network.heads
    caps = network.caps
    adjacency = network.adjacency
    out_heads = network.out_heads
    in_tails = network.in_tails
    changed = network._changed
    levels = network._levels
    iters = network._iters
    stamp = network._stamp
    # Stored at once: a generation must never be reused, even by the
    # search after an interrupted one.
    network._gen = gen = network._gen + 1
    stamp[source] = stamp[sink] = gen
    levels[source] = iters[source] = 0
    levels[sink] = -1
    eps = RESIDUAL_EPS
    forward = [source]
    backward = [sink]
    f = b = 0
    labelled = 2
    full_scans = 0
    while forward and backward:
        backward_step = len(forward) > len(backward)
        if backward_step:
            frontier, untouched, flip, label = backward, in_tails, 1, -2 - b
        else:
            frontier, untouched, flip, label = forward, out_heads, 0, f + 1
        layer: List[int] = []
        append = layer.append
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
                elif (levels[v] < 0) != backward_step:  # labelled by the other search
                    # The layer that made contact holds no vertex of a
                    # shortest path.
                    for x in layer:
                        stamp[x] = 0
                    network.full_scans += full_scans
                    return True, f, b, labelled + len(layer)
        labelled += len(layer)
        if backward_step:
            backward = layer
            b += 1
        else:
            forward = layer
            f += 1
    network.full_scans += full_scans
    return False, f, b, labelled


@register_network_solver("dinic")
def dinic_on_network(
    network: ResidualNetwork,
    source: int,
    sink: int,
    cutoff: Optional[float] = None,
) -> float:
    """Run Dinic on dense vertex indices; mutates the network in place.

    Each phase grows the level graph from both ends (:func:`_level_graph`)
    and then finds a blocking flow with an iterative DFS (an explicit arc
    path instead of recursion — the Even-transformed graphs of large
    snapshots exceed Python's recursion limit) that only enters vertices
    stamped in this phase and steps through single exits (module
    docstring).  Level, current-arc and stamp arrays are owned by the
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
    boundary = network.boundary
    stamp = network._stamp
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
        met, f, b, grown = _level_graph(network, source, sink, epoch)
        labelled += grown
        if not met:
            break  # one side is exhausted: no residual source-sink path
        phases += 1
        pushed_before = augmentations
        gen = network._gen
        # The forward frontier's next level is the backward frontier.
        top = f + 1
        bridge = -1 - b
        longest = f + b + 1  # every path of the level graph has this length

        # -- blocking flow: iterative DFS over the stamped level graph ----
        path: List[int] = []  # arcs of the current partial source->u path
        u = source
        while True:
            if u == sink:
                pushed = min(map(caps.__getitem__, path))
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
            if next_level == top:
                next_level = bridge
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
                        if v == sink or changed[v] >= epoch:
                            break
                        exits = out_heads[v]
                        if len(exits) != 1:
                            break
                        # A single exit: decide v from here.
                        w = exits[0]
                        after = next_level + 1
                        if after == top:
                            after = bridge
                        if stamp[w] == gen and levels[w] == after:
                            # Take u -> v here and v -> w below, as if
                            # the scan had been v's.
                            iters[u] = position
                            path.append(adjacency[u][position])
                            u, v, position, degree = v, w, 0, 1
                            break
                        stamp[v] = 0  # its one way on leaves the level graph
                    position += 1
            iters[u] = position
            if position < degree:
                path.append(adjacency[u][position])
                if len(path) > longest:
                    # Levels rise by one per arc, so a longer path has
                    # left the level graph and could go round for ever.
                    raise RuntimeError("Dinic: a path left the level graph")
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
                # An untouched single exit whose one way on was u is a
                # dead end too: prune it now instead of re-entering it.
                while u != source and changed[u] < epoch and boundary[u] == 1:
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
