"""Residual-network representation shared by every max-flow solver.

Vertices of the input :class:`~repro.graph.digraph.DiGraph` are mapped to
dense integer indices so the solvers can use flat lists instead of hash maps
in their inner loops.  Edges are stored in a single arc array where the arc
``i`` and its reverse arc ``i ^ 1`` are adjacent — the standard trick that
makes pushing flow on the residual edge O(1).  Each vertex's list of arc
indices is an ``array('q')``, so a network holds no Python int per arc id.

For the batched pair-flow engine (:mod:`repro.runtime.pairflow`) the network
can be frozen into a :class:`CompactNetwork` — a flat, ``array``-backed,
picklable snapshot.  One Even-transformed network is built per connectivity
graph, compacted once, shipped to the workers with the shards of the
first wave (and again on a payload miss), and thawed back into a
:class:`ResidualNetwork` there; no worker ever rebuilds the
transformation per pair.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, count
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.errors import VertexNotFoundError

Vertex = Hashable

#: The residual threshold: an arc can carry flow iff its capacity exceeds
#: this.  Every solver tests against this one value (hot loops bind it to
#: a local first).
RESIDUAL_EPS = 1e-12

#: Names of the per-network kernel counters, in the order
#: :meth:`ResidualNetwork.kernel_counters` reports them.
KERNEL_COUNTERS = (
    "phases",
    "augmentations",
    "vertices_labelled",
    "cutoff_hits",
    "full_scans",
)


def is_twin(arc: int) -> bool:
    """Whether ``arc`` is the empty twin of an arc created with capacity.

    The arc-pair convention, stated once: arcs are created in pairs, the
    even index ``a`` is the arc that was given its capacity, the odd index
    ``a ^ 1`` is its reverse twin, created with capacity 0.  A twin holds
    capacity only while its partner carries flow.
    """
    return arc & 1 == 1


@dataclass(frozen=True)
class CompactNetwork:
    """Flat, picklable snapshot of a :class:`ResidualNetwork`.

    Adjacency is stored in CSR form (``offsets`` has ``n + 1`` entries;
    the arcs leaving vertex ``v`` are ``arcs[offsets[v]:offsets[v + 1]]``,
    the first ``boundary[v]`` of them created with capacity, the rest
    twins) and every field is a typed :mod:`array`, so pickling the
    snapshot costs one contiguous buffer copy per field instead of a
    per-element walk.
    Vertex identity is the dense index itself — callers that need the
    original vertex objects keep their own index mapping (see
    :class:`repro.graph.transform.even_transform.IndexedEvenTransform`).
    """

    n: int
    heads: array
    caps: array
    offsets: array
    arcs: array
    boundary: array

    def thaw(self) -> "ResidualNetwork":
        """Rebuild a mutable :class:`ResidualNetwork` from this snapshot."""
        return ResidualNetwork.from_compact(self)

    def arc_count(self) -> int:
        """Return the number of arcs (forward + reverse)."""
        return len(self.heads)


def _columns(
    forward_arcs: Sequence[Tuple[int, int, float]],
) -> Tuple[Sequence[int], Sequence[int], Sequence[float]]:
    """The ``(tails, heads, capacities)`` columns of arc triples."""
    return tuple(zip(*forward_arcs)) or ((), (), ())  # type: ignore[return-value]


class ResidualNetwork:
    """Arc-list residual network built from a :class:`DiGraph`.

    Attributes
    ----------
    n:
        Number of vertices.
    heads:
        ``heads[a]`` is the head vertex index of arc ``a``.
    caps:
        ``caps[a]`` is the residual capacity of arc ``a``.
    adjacency:
        ``adjacency[v]`` is the ``array('q')`` of arc indices leaving
        ``v``: the arcs created with capacity first (in creation order),
        their twins — see :func:`is_twin` — after.  An array stores each
        index as 8 bytes instead of a reference to an int object of its
        own; solvers read it as a sequence, like a list.
    boundary:
        ``boundary[v]`` is where the twins start in ``adjacency[v]``.
    out_heads, in_tails:
        Per-vertex tuples aligned position for position with the two
        halves of ``adjacency[v]``: ``out_heads[v][i]`` is the head of the
        ``i``-th capacity-bearing arc leaving ``v``, ``in_tails[v][i]``
        the head of the ``i``-th twin (the tail of the arc entering ``v``
        that it mirrors).  A pair created with capacity 0 (inert) is
        written as ``v`` itself.  They derive from the *initial*
        capacities, so they describe every vertex no flow has changed
        since the last :meth:`reset`; they are ``None`` until the first
        Dinic call builds them (:meth:`head_tuples`).  Nothing changes
        initial capacities after construction; a change that did — e.g.
        switching on the arcs of the super vertices X and Y of Even's
        κ(D) test — must rebuild the tuples of both ends of every such
        arc.
    phases, augmentations, vertices_labelled, cutoff_hits, full_scans:
        Running totals of what the Dinic kernel did on this network
        (level graphs built, augmenting paths pushed, vertices given a
        level, flows ended by their cutoff, frontier vertices expanded
        through their whole arc list instead of their head tuple); see
        :data:`KERNEL_COUNTERS`.

    A network whose vertices are their own indices (:meth:`from_columns`
    and :meth:`from_arcs` without labels, :meth:`from_compact`) keeps
    ``range(n)`` as its labels and no index dict; :meth:`index_of` still
    rejects anything outside ``0 .. n - 1``.
    """

    __slots__ = (
        "n",
        "heads",
        "caps",
        "adjacency",
        "boundary",
        "out_heads",
        "in_tails",
        "_index_of",
        "_vertex_of",
        "_initial_caps",
        "_levels",
        "_iters",
        "_stamp",
        "_gen",
        "_touched",
        "_changed",
        "_epoch",
    ) + KERNEL_COUNTERS

    def __init__(self, graph: Optional[DiGraph]) -> None:
        self._levels: Optional[List[int]] = None
        self._iters: Optional[List[int]] = None
        self.out_heads: Optional[List[Tuple[int, ...]]] = None
        self.in_tails: Optional[List[Tuple[int, ...]]] = None
        # Dinic's level-graph membership: v is in the current phase iff
        # ``_stamp[v] == _gen`` (no stamp ever equals the initial 0).
        self._stamp: Optional[List[int]] = None
        self._gen = 0
        # Undo log: arcs whose pair differs from ``_initial_caps``, or
        # ``None`` when that set is unknown and ``reset`` must copy it all.
        # A new network is at its initial capacities: the log starts empty.
        self._touched: Optional[List[int]] = []
        # While the log is kept, ``_changed[v] == _epoch`` for both ends of
        # every logged arc: at any other vertex every incident arc is at
        # its initial capacity, twins at 0 (no mark ever equals a later
        # epoch, and ``reset`` advances it).
        self._changed: List[int] = []
        self._epoch = 1
        for name in KERNEL_COUNTERS:
            setattr(self, name, 0)
        if graph is None:  # shell for the alternate constructors
            self.n = 0
            # Identity labels: ``index_of`` reads ``range(n)`` itself.
            self._index_of: Optional[Dict[Vertex, int]] = None
            self._vertex_of: Sequence[Vertex] = range(0)
            self.heads: List[int] = []
            self.caps: List[float] = []
            self.adjacency: List[array] = []
            self.boundary: List[int] = []
            self._initial_caps: List[float] = []
            return
        vertices = graph.vertices()
        index_of = {v: i for i, v in enumerate(vertices)}
        self._index_of = index_of
        self._vertex_of = vertices
        self._build(
            len(vertices),
            *_columns([
                (index_of[source], index_of[target], capacity)
                for source, target, capacity in graph.edges()
            ]),
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(
        cls,
        n: int,
        forward_arcs: Sequence[Tuple[int, int, float]],
        vertex_of: Optional[Sequence[Vertex]] = None,
    ) -> "ResidualNetwork":
        """Build a network directly from ``(tail, head, capacity)`` triples.

        Bypasses the :class:`DiGraph` construction entirely — any integer
        arc list.  When ``vertex_of`` is omitted, vertices are their own
        indices.  Triple ``i`` becomes the arc pair ``(2 i, 2 i + 1)``:
        this is :meth:`from_columns` on the triples' three columns.
        """
        return cls.from_columns(n, *_columns(forward_arcs), vertex_of=vertex_of)

    @classmethod
    def from_columns(
        cls,
        n: int,
        tails: Sequence[int],
        heads: Sequence[int],
        capacities: Sequence[float],
        vertex_of: Optional[Sequence[Vertex]] = None,
    ) -> "ResidualNetwork":
        """Build a network from arc columns: arc ``i`` is ``tails[i] -> heads[i]``.

        The same network as :meth:`from_arcs` on the triples
        ``zip(tails, heads, capacities)``, for builders that emit whole
        columns (the Even transform slices its columns out of the graph's
        rows) and so never make a tuple per arc.
        """
        network = cls(None)
        if vertex_of is None:
            network._vertex_of = range(n)
        else:
            network._vertex_of = list(vertex_of)
            network._index_of = dict(zip(network._vertex_of, range(n)))
        network._build(n, tails, heads, capacities)
        return network

    @classmethod
    def from_compact(cls, compact: "CompactNetwork") -> "ResidualNetwork":
        """Thaw a :class:`CompactNetwork` snapshot into a mutable network.

        The heads/caps buffers are converted back to plain lists because
        list indexing is measurably faster than ``array`` indexing in the
        solvers' inner loops; the conversion is a one-time O(m) cost per
        worker process.  It makes no object per arc: ``heads`` holds the
        ``n`` ints of ``range(n)``, each as often as arcs lead to it, and
        ``caps`` one float per distinct capacity (unpacking an array makes
        a new object per element).  Each vertex's arc list is a slice of
        the shipped CSR ``arcs`` — an ``array('q')`` already, copied
        without making an int per arc.  Vertices are their own indices.  Arc numbering,
        list order and ``boundary`` are the frozen network's own, so the
        pair invariant (:func:`is_twin`) and the two-half layout hold here
        because they held there.  The head tuples are not shipped: the
        thawed network builds its own on its first Dinic call.
        """
        network = cls(None)
        n = compact.n
        network._vertex_of = range(n)
        offsets = compact.offsets
        arcs = compact.arcs
        vertices = list(range(n))
        capacities: Dict[float, float] = {}
        network._adopt(
            list(map(vertices.__getitem__, compact.heads)),
            list(map(capacities.setdefault, compact.caps, compact.caps)),
            [arcs[offsets[v]:offsets[v + 1]] for v in range(n)],
            list(compact.boundary),
        )
        return network

    def compact(self) -> CompactNetwork:
        """Freeze the *initial* capacities into a picklable snapshot."""
        adjacency = self.adjacency
        arcs = array("q")
        for vertex_arcs in adjacency:
            arcs += vertex_arcs
        return CompactNetwork(
            n=self.n,
            heads=array("q", self.heads),
            caps=array("d", self._initial_caps),
            offsets=array("q", accumulate(map(len, adjacency), initial=0)),
            arcs=arcs,
            boundary=array("q", self.boundary),
        )

    # ------------------------------------------------------------------
    def _build(
        self,
        n: int,
        tails: Sequence[int],
        heads: Sequence[int],
        capacities: Sequence[float],
    ) -> None:
        """Create the arc pairs of arc columns — the one layout routine.

        Arc ``i`` of the columns becomes arc ``2 i`` (tail -> head, its
        capacity) and its twin ``2 i + 1`` (head -> tail, 0): the
        invariant of :func:`is_twin`.  Two passes lay every adjacency list
        out as "arcs created with capacity, then twins", each half in
        creation order, with ``boundary`` between them — what lets the
        Dinic kernel read a vertex no flow has changed through a tuple of
        one half (:meth:`head_tuples`).
        ``heads`` and ``caps`` are filled by slice assignment; the passes
        are one ``array.append`` per arc, which stores the index and lets
        the int the ``range`` made go at once.
        """
        arc_count = 2 * len(tails)
        arc_heads = [0] * arc_count
        arc_heads[0::2] = heads
        arc_heads[1::2] = tails
        caps = [0.0] * arc_count
        caps[0::2] = capacities
        adjacency = [array("q") for _ in range(n)]
        for arc, tail in zip(range(0, arc_count, 2), tails):
            adjacency[tail].append(arc)
        boundary = list(map(len, adjacency))
        for twin, head in zip(range(1, arc_count, 2), heads):
            adjacency[head].append(twin)
        self._adopt(arc_heads, caps, adjacency, boundary)

    def _adopt(
        self,
        heads: List[int],
        caps: List[float],
        adjacency: List[array],
        boundary: List[int],
    ) -> None:
        """Install laid-out arc lists; the network starts at these capacities."""
        self.n = len(adjacency)
        self.heads = heads
        self.caps = caps
        self.adjacency = adjacency
        self.boundary = boundary
        self._initial_caps = list(caps)
        self._changed = [0] * self.n
        self.out_heads = self.in_tails = None

    # ------------------------------------------------------------------
    def scratch_buffers(self) -> Tuple[List[int], List[int]]:
        """Return the preallocated ``(levels, iterators)`` work arrays.

        Their contents are unspecified between calls: Edmonds-Karp
        overwrites ``levels`` in full before reading it, while Dinic
        writes an entry only when it stamps that vertex into the current
        phase (``_stamp``, allocated alongside) and reads no other.
        Allocating them once per network (instead of per max-flow query)
        matters when one Even-transformed network answers thousands of
        pair queries.
        """
        if self._levels is None or len(self._levels) != self.n:
            self._levels = [0] * self.n
            self._iters = [0] * self.n
            self._stamp = [0] * self.n
        return self._levels, self._iters  # type: ignore[return-value]

    def head_tuples(self) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
        """Return ``(out_heads, in_tails)``, building them on the first call.

        Built from ``_initial_caps``, never from ``caps``: the first Dinic
        call may follow another solver's flow without a :meth:`reset`,
        and the tuples must describe the capacities a vertex returns to,
        not the ones it holds.  Built lazily, like :meth:`scratch_buffers`,
        so a network no Dinic call reads never holds them, a thawed worker
        network builds its own and :meth:`compact` ships nothing new —
        and, in the Even transform, only after its arc columns are freed.
        """
        if self.out_heads is None:
            ends = self.heads
            initial = self._initial_caps
            inert = list(compress(count(0, 2), map(RESIDUAL_EPS.__ge__, initial[0::2])))
            if inert:
                # Swapping an inert pair's heads writes each end as the
                # vertex itself, in either tuple.
                ends = list(ends)
                for arc in inert:
                    ends[arc], ends[arc ^ 1] = ends[arc ^ 1], ends[arc]
            end = ends.__getitem__
            # One tuple per vertex, sliced at the boundary: it makes no
            # array slice, which pays for the slower array build of the
            # arc lists (freed tuples stay on CPython's free lists).
            out_heads: List[Tuple[int, ...]] = []
            in_tails: List[Tuple[int, ...]] = []
            for arcs, b in zip(self.adjacency, self.boundary):
                vertex_ends = tuple(map(end, arcs))
                out_heads.append(vertex_ends[:b])
                in_tails.append(vertex_ends[b:])
            self.out_heads, self.in_tails = out_heads, in_tails
        return self.out_heads, self.in_tails  # type: ignore[return-value]

    def kernel_counters(self) -> Tuple[int, ...]:
        """Return the running totals named by :data:`KERNEL_COUNTERS`."""
        return tuple(getattr(self, name) for name in KERNEL_COUNTERS)

    def index_of(self, vertex: Vertex) -> int:
        """Return the dense index of ``vertex``.

        With identity labels the lookup is ``range(n).index``, O(1) for
        an int.
        """
        try:
            if self._index_of is None:
                return self._vertex_of.index(vertex)
            return self._index_of[vertex]
        except (KeyError, ValueError):
            raise VertexNotFoundError(vertex) from None

    def vertex_of(self, index: int) -> Vertex:
        """Return the original vertex for a dense index."""
        return self._vertex_of[index]

    def reset(self) -> None:
        """Restore all residual capacities to their initial values.

        Solvers mutate ``caps`` in place; resetting lets one network object
        be reused for many source/target pairs, which is exactly the access
        pattern of the global-connectivity computation (one transformed graph,
        many max-flow queries).  Dinic logs the arcs of every augmenting
        path in ``_touched`` (and marks their end vertices in ``_changed``),
        so undoing it costs the flow it pushed, not the size of the graph;
        a solver that does not keep the log sets it to ``None`` and the
        next reset copies every capacity.  Either way the epoch advances,
        which unmarks every vertex at once.
        """
        self._epoch += 1  # every capacity is initial again: no vertex is marked
        touched = self._touched
        if touched is None:
            self.caps[:] = self._initial_caps
            self._touched = []
            return
        caps = self.caps
        initial = self._initial_caps
        for arc in touched:
            caps[arc] = initial[arc]
            caps[arc ^ 1] = initial[arc ^ 1]
        touched.clear()

    def flow_on_arc(self, arc: int) -> float:
        """Return the flow routed through ``arc``, an arc created with capacity.

        (For a twin — :func:`is_twin` — the difference is minus the flow
        of its partner.)
        """
        return self._initial_caps[arc] - self.caps[arc]

    def arc_count(self) -> int:
        """Return the number of arcs (forward + reverse)."""
        return len(self.heads)

    def min_cut_reachable(self, source_index: int) -> List[int]:
        """Vertices reachable from ``source_index`` in the residual network.

        After a max-flow computation the reachable set defines the source
        side of a minimum cut, which tests use to verify the max-flow
        min-cut theorem.
        """
        seen = [False] * self.n
        seen[source_index] = True
        stack = [source_index]
        while stack:
            u = stack.pop()
            for arc in self.adjacency[u]:
                if self.caps[arc] > RESIDUAL_EPS and not seen[self.heads[arc]]:
                    seen[self.heads[arc]] = True
                    stack.append(self.heads[arc])
        return [i for i, flag in enumerate(seen) if flag]
