"""The protocol-agnostic overlay seam.

The resilience pipeline (simulation orchestration, snapshot capture, the
incremental connectivity-graph maintainer, virtual-time latency
accounting) never needed anything Kademlia-specific — it relies on a
small protocol surface that this module makes explicit:

* **lifecycle** — :meth:`OverlayProtocol.join` /
  :meth:`~repro.simulator.protocol.Protocol.on_join` /
  :meth:`~repro.simulator.protocol.Protocol.on_leave` /
  :meth:`~repro.simulator.protocol.Protocol.close` (the node will never
  act again: drop its routing state and stored data);
* **routing-state capture** — :meth:`OverlayProtocol.routing_table_snapshot`
  returns the node's snapshot row (``node_id -> [contact_ids]``) and
  :meth:`OverlayProtocol.snapshot_version` stamps its membership so the
  incremental graph maintainer can skip unchanged rows;
* **lookup issuing** — :meth:`OverlayProtocol.lookup` returns a
  :class:`LookupResult`, whose round/failure structure feeds the
  virtual-time latency model (:mod:`repro.obs.virtualtime`);
* **maintenance** — :meth:`OverlayProtocol.maintenance_refresh` is the
  periodic refresh hook the simulation schedules per node (Kademlia's
  bucket refresh, Chord's stabilisation, Pastry's row repair).

:class:`KademliaProtocol` implements the interface directly on its
k-bucket machinery; :class:`RoutedOverlayProtocol` (below) is the shared
base for overlays that route greedily by a per-target distance metric
(Chord's clockwise ring distance, Pastry's prefix-then-ring tuple) and
provides the iterative lookup driver, RPC bookkeeping, bootstrap reseed
fallback and dissemination — mirroring the Kademlia semantics so all
protocols face identical churn/attack/loss dynamics.
"""

from __future__ import annotations

import abc
import random
from bisect import insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs import active as obs_active
from repro.obs.virtualtime import lookup_virtual_latency
from repro.overlay.messages import (
    ReplicaStoreRequest,
    ReplicaStoreResponse,
    RouteRequest,
    RouteResponse,
)
from repro.simulator.protocol import Protocol

Clock = Callable[[], float]


@dataclass(slots=True)
class LookupResult:
    """Outcome of one iterative lookup.

    Attributes
    ----------
    target_id:
        The identifier that was looked up.
    contacted:
        Nodes that answered, sorted by routing distance to the target
        (closest first), at most the protocol's replication count.
    queried:
        Total number of round-trips attempted.
    failures:
        Number of failed round-trips.
    rounds:
        Number of parallel query rounds performed.
    """

    target_id: int
    contacted: List[int] = field(default_factory=list)
    queried: int = 0
    failures: int = 0
    rounds: int = 0

    @property
    def succeeded(self) -> bool:
        """True if at least one node answered."""
        return bool(self.contacted)

    def virtual_latency(
        self, rtt: float = 1.0, timeout_penalty: float = 3.0
    ) -> float:
        """Per-hop virtual-time latency of this lookup, in RTT units.

        The whole lookup executes within one simulator event, so no
        virtual duration can be measured directly — but the per-hop
        structure is fully known: every parallel query round is one
        request/response round-trip deep (one ``rtt``), and every failed
        round-trip additionally waited out a timeout
        (``timeout_penalty``).  Accumulating those per-hop costs yields
        the latency a real deployment would have observed; the default
        constants mirror :mod:`repro.obs.virtualtime`.
        """
        return self.rounds * rtt + self.failures * timeout_penalty

    def closest(self) -> int:
        """Return the contacted node closest to the target.

        Raises ``ValueError`` when nothing was contacted.
        """
        if not self.contacted:
            raise ValueError("lookup contacted no nodes")
        return self.contacted[0]


class OverlayProtocol(Protocol):
    """Abstract interface every overlay protocol implements.

    Concrete here is only the transport/clock wiring shared by every
    implementation; everything behavioural is abstract.  The simulation
    layer (:class:`repro.experiments.simulation.OverlaySimulation`) and
    the incremental graph maintainer talk exclusively to this surface.
    """

    protocol_name = "overlay"

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.transport = None
        self._clock: Clock = lambda: 0.0
        self.bootstrap_id: Optional[int] = None
        self._ever_connected = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, transport, clock: Clock) -> None:
        """Attach the transport and the simulated clock."""
        self.transport = transport
        self._clock = clock

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._clock()

    @property
    def ever_connected(self) -> bool:
        """True once this node has completed one successful outgoing round-trip."""
        return self._ever_connected

    def _require_bound(self) -> None:
        if self.transport is None:
            raise RuntimeError(
                "protocol is not bound to a transport; call bind() first"
            )

    # ------------------------------------------------------------------
    # The seam
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def join(self, bootstrap_id: Optional[int]) -> LookupResult:
        """Join the network via ``bootstrap_id`` (None for the first node)."""

    @abc.abstractmethod
    def lookup(self, target_id: int) -> LookupResult:
        """Perform one iterative lookup for ``target_id``."""

    @abc.abstractmethod
    def disseminate(self, key_id: int, value: Any) -> Tuple[LookupResult, int]:
        """Store ``value`` on the replica set of ``key_id``."""

    @abc.abstractmethod
    def maintenance_refresh(self, rng: random.Random) -> int:
        """Run one periodic maintenance cycle; returns the lookups issued."""

    @abc.abstractmethod
    def routing_table_snapshot(self) -> List[int]:
        """Return the current contact ids (the node's row of the snapshot)."""

    @abc.abstractmethod
    def snapshot_version(self):
        """Version stamp of :meth:`routing_table_snapshot`'s membership.

        The incremental connectivity-graph maintainer skips rebuilding a
        node's row while this value is unchanged, so implementations must
        bump it whenever the snapshot's contact set changes.
        """


class RoutedOverlayProtocol(OverlayProtocol):
    """Shared machinery for metric-routed overlays (Chord, Pastry).

    A subclass supplies its routing *state* and *geometry*:

    * :meth:`route_distance` — the per-target metric greedy routing
      minimises (any totally ordered value; ties are broken by node id);
    * :meth:`route_contacts` — the contacts from the node's own state
      that are useful toward a target (lookup seeds and the server-side
      :class:`RouteResponse` payload);
    * :meth:`_learn_contact` / :meth:`_forget_contact` — state insertion
      and eviction, returning whether the snapshot membership changed;
    * :meth:`close` — extended to empty that routing state;
    * :attr:`replication` — the lookup/dissemination replica count (the
      protocol's ``k`` analogue).

    Everything else — the iterative greedy lookup driver, RPC
    bookkeeping with staleness eviction, the bootstrap reseed fallback,
    dissemination and the observability counters (prefixed with the
    protocol name, e.g. ``chord.lookups``) — mirrors the Kademlia
    implementation so the three protocols face identical environment
    dynamics.
    """

    def __init__(self, node_id: int, config) -> None:
        super().__init__(node_id)
        self.config = config
        self.storage: Dict[int, Any] = {}
        #: Consecutive failed round-trips per known contact; a contact is
        #: evicted when its streak reaches ``config.staleness_limit``.
        self._failure_streaks: Dict[int, int] = {}
        self._membership_version = 0
        self.lookups_performed = 0
        self.disseminations_performed = 0
        self.refreshes_performed = 0
        self.reseeds_performed = 0
        #: Metrics registry captured at construction (None = observability
        #: off); write-only, never feeds back into protocol behaviour.
        self._obs = obs_active()

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def replication(self) -> int:
        """Replica count of lookups and disseminations (the ``k`` analogue)."""

    @abc.abstractmethod
    def route_distance(self, node_id: int, target_id: int):
        """Totally ordered routing metric of ``node_id`` toward ``target_id``."""

    @abc.abstractmethod
    def route_contacts(self, target_id: int) -> List[int]:
        """Contacts from own state useful toward ``target_id``, closest first."""

    @abc.abstractmethod
    def _learn_contact(self, node_id: int) -> bool:
        """Insert ``node_id`` into the routing state; True if membership changed."""

    @abc.abstractmethod
    def _forget_contact(self, node_id: int) -> bool:
        """Evict ``node_id`` from the routing state; True if it was present."""

    # ------------------------------------------------------------------
    # Contact bookkeeping (mirrors the Kademlia semantics)
    # ------------------------------------------------------------------
    def note_contact(self, node_id: int, time: Optional[float] = None) -> bool:
        """Record a (successful) interaction with ``node_id``."""
        if node_id == self.node_id:
            return False
        self._failure_streaks.pop(node_id, None)
        if self._learn_contact(node_id):
            self._membership_version += 1
        return True

    def record_failure(self, node_id: int) -> bool:
        """Record a failed round-trip; True if the contact was dropped as stale."""
        streak = self._failure_streaks.get(node_id, 0) + 1
        if streak >= self.config.staleness_limit:
            self._failure_streaks.pop(node_id, None)
            if self._forget_contact(node_id):
                self._membership_version += 1
                return True
            return False
        self._failure_streaks[node_id] = streak
        return False

    def rpc(self, target_id: int, request: Any) -> Tuple[bool, Any]:
        """One round-trip plus the table bookkeeping (success refresh / staleness)."""
        transport = self.transport
        if transport is None:
            self._require_bound()
        ok, response = transport.rpc(self.node_id, target_id, request)
        if ok:
            self._ever_connected = True
            self.note_contact(target_id)
        else:
            evicted = self.record_failure(target_id)
            if evicted and self._obs is not None:
                self._obs.inc(f"{self.protocol_name}.evictions")
        return ok, response

    def _reseed_if_isolated(self) -> bool:
        """Fall back to the configured bootstrap contact when cut off.

        Same recovery as Kademlia's (see
        :meth:`repro.kademlia.protocol.KademliaProtocol._reseed_if_isolated`):
        without it, loss during the join permanently partitions islands.
        """
        if not self.config.bootstrap_reseed:
            return False
        if self._ever_connected and self.routing_table_snapshot():
            return False
        if self.bootstrap_id is None or self.bootstrap_id == self.node_id:
            return False
        if self.note_contact(self.bootstrap_id):
            self.reseeds_performed += 1
            return True
        return False

    def close(self) -> None:
        """The node left for good: drop failure streaks and storage.

        Subclasses extend it to empty their own routing state.
        """
        self._failure_streaks.clear()
        self.storage.clear()
        self._membership_version += 1

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def handle_request(self, sender_id: int, request: Any) -> Optional[Any]:
        """Dispatch an incoming RPC; every request also records the sender."""
        self.note_contact(sender_id)
        if isinstance(request, RouteRequest):
            return RouteResponse(
                responder_id=self.node_id,
                contacts=tuple(self.route_contacts(request.target_id)),
            )
        if isinstance(request, ReplicaStoreRequest):
            self.storage[request.key_id] = request.value
            return ReplicaStoreResponse(responder_id=self.node_id, stored=True)
        return None

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def join(self, bootstrap_id: Optional[int]) -> LookupResult:
        """Insert the bootstrap contact and look up the own identifier."""
        self._require_bound()
        if bootstrap_id is not None and bootstrap_id != self.node_id:
            self.bootstrap_id = bootstrap_id
            self.note_contact(bootstrap_id)
        return self.lookup(self.node_id)

    def lookup(self, target_id: int) -> LookupResult:
        """One iterative greedy lookup with virtual-latency accounting."""
        self._require_bound()
        self._reseed_if_isolated()
        self.lookups_performed += 1
        result = self._iterative_route(target_id)
        registry = self._obs
        if registry is not None:
            name = self.protocol_name
            registry.inc(f"{name}.lookups")
            registry.observe(
                f"{name}.lookup.virtual_latency", lookup_virtual_latency(result)
            )
            registry.observe(f"{name}.lookup.rounds", result.rounds)
            if result.failures:
                registry.inc(f"{name}.lookup.failed_rpcs", result.failures)
        return result

    def disseminate(self, key_id: int, value: Any) -> Tuple[LookupResult, int]:
        """Store ``value`` on the replica set of ``key_id``."""
        self._require_bound()
        self.disseminations_performed += 1
        locate = self.lookup(key_id)
        stored = 0
        for node_id in locate.contacted:
            ok, response = self.rpc(
                node_id, ReplicaStoreRequest(key_id=key_id, value=value)
            )
            if (
                ok
                and isinstance(response, ReplicaStoreResponse)
                and response.stored
            ):
                stored += 1
        return locate, stored

    def maintenance_refresh(self, rng: random.Random) -> int:
        """Issue one maintenance cycle's routing lookups.

        Subclasses supply the targets via :meth:`_refresh_targets`; the
        shared part counts the cycle and keeps the RNG draw order
        deterministic (one :meth:`_refresh_targets` call per cycle).
        """
        self._require_bound()
        self._reseed_if_isolated()
        self.refreshes_performed += 1
        if self._obs is not None:
            self._obs.inc(f"{self.protocol_name}.refreshes")
        targets = self._refresh_targets(rng)
        for target in targets:
            self._iterative_route(target)
        return len(targets)

    @abc.abstractmethod
    def _refresh_targets(self, rng: random.Random) -> List[int]:
        """Identifiers one maintenance cycle looks up."""

    # ------------------------------------------------------------------
    # Snapshot seam
    # ------------------------------------------------------------------
    def snapshot_version(self):
        return self._membership_version

    # ------------------------------------------------------------------
    # The iterative greedy lookup driver
    # ------------------------------------------------------------------
    def _iterative_route(self, target_id: int) -> LookupResult:
        """Greedy iterative routing, the overlay analogue of
        :func:`repro.kademlia.lookup.iterative_find_node`.

        The frontier is a lazy min-heap over ``(distance, id)`` holding
        exactly the known-but-unqueried candidates; ``alpha`` closest are
        queried per round and every reply's contacts extend the frontier
        and the routing state.  Distance ties (possible for Pastry's ring
        component) are broken by node id, so the order is deterministic.

        Termination follows the paper's formulation — the lookup ends
        when ``replication`` nodes have responded *and no remaining
        candidate could improve that set*, or when no candidates remain.
        The progress clause matters more here than in the Kademlia
        driver: metric-routed overlays seed the frontier from a single
        local vantage point (their own ring neighbourhood), so the first
        ``replication`` responders routinely predate convergence.
        """
        result = LookupResult(target_id=target_id)
        replication = self.replication
        alpha = self.config.alpha
        own_id = self.node_id
        rpc = self.rpc
        note_contact = self.note_contact
        distance = self.route_distance
        request = RouteRequest(target_id=target_id)

        seeds = self.route_contacts(target_id)
        candidates: Set[int] = set(seeds)
        frontier = [(distance(node_id, target_id), node_id) for node_id in seeds]
        heapify(frontier)
        #: Distances of responders, ascending; holds at most ``replication``
        #: entries (the current best responder set).
        best_responded: List = []
        responded: Set[int] = set()
        queried_count = 0
        failure_count = 0
        round_count = 0

        while frontier:
            if len(responded) >= replication and (
                frontier[0][0] >= best_responded[-1]
            ):
                break
            batch = [
                heappop(frontier)[1] for _ in range(min(alpha, len(frontier)))
            ]
            round_count += 1

            for node_id in batch:
                queried_count += 1
                ok, response = rpc(node_id, request)
                if not ok or not isinstance(response, RouteResponse):
                    failure_count += 1
                    continue
                responded.add(node_id)
                insort(best_responded, distance(node_id, target_id))
                if len(best_responded) > replication:
                    best_responded.pop()
                for contact_id in response.contacts:
                    if contact_id != own_id and contact_id not in candidates:
                        candidates.add(contact_id)
                        heappush(
                            frontier,
                            (distance(contact_id, target_id), contact_id),
                        )
                    note_contact(contact_id)

        result.queried = queried_count
        result.failures = failure_count
        result.rounds = round_count
        result.contacted = sorted(
            responded, key=lambda node_id: (distance(node_id, target_id), node_id)
        )[:replication]
        return result
