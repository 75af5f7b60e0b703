"""The Kademlia protocol handler attached to every simulation node."""

from __future__ import annotations

import random
from heapq import heappush
from typing import Any, List, Optional, Tuple

from repro.kademlia.config import KademliaConfig
from repro.kademlia.lookup import LookupResult, iterative_find_node
from repro.kademlia.messages import (
    FindNodeRequest,
    FindNodeResponse,
    FindValueRequest,
    FindValueResponse,
    PingRequest,
    PongResponse,
    StoreRequest,
    StoreResponse,
)
from repro.kademlia.routing_table import RoutingTable
from repro.kademlia.storage import DataStore
from repro.obs import active as obs_active
from repro.obs.virtualtime import lookup_virtual_latency
from repro.overlay.base import OverlayProtocol


class KademliaProtocol(OverlayProtocol):
    """Kademlia state machine for one node.

    The protocol is *bound* to a transport and a simulated clock after
    construction (``bind``); the experiment runner owns both.  All
    client-side operations (``join``, ``lookup``, ``disseminate``,
    ``bucket_refresh``) run synchronously at the simulated instant at which
    the runner invokes them — see the design note in
    :mod:`repro.simulator.__init__`.
    """

    protocol_name = "kademlia"

    #: Which of the hooks below a class left as defined here, resolved once
    #: per class (:meth:`__init_subclass__`) because a lookup asks on every
    #: hop.  ``stock_requester``: ``note_contact``, ``rpc`` and
    #: ``learn_contacts`` are stock, so a lookup from this node may keep the
    #: table itself (:meth:`refreshes_deferrable`).  ``stock_responder``:
    #: ``handle_request`` and ``note_contact`` are stock, so what this node
    #: does with a FIND_NODE is exactly
    #: :meth:`RoutingTable.find_node_reply` and a lookup may call that
    #: without the request/response envelope.
    stock_requester = True
    stock_responder = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)

        def stock(*names: str) -> bool:
            return all(
                getattr(cls, name) is getattr(KademliaProtocol, name) for name in names
            )

        cls.stock_requester = stock("note_contact", "rpc", "learn_contacts")
        cls.stock_responder = stock("handle_request", "note_contact")

    def __init__(self, node_id: int, config: KademliaConfig) -> None:
        # OverlayProtocol.__init__ sets up the wiring attributes
        # (transport, clock, bootstrap_id, ever_connected).
        super().__init__(node_id)
        self.config = config
        self.routing_table = RoutingTable(node_id, config)
        self.storage = DataStore()
        self.lookups_performed = 0
        self.disseminations_performed = 0
        self.refreshes_performed = 0
        self.reseeds_performed = 0
        #: Metrics registry captured at construction (None = observability
        #: off): protocols are built inside the experiment run's scope, so
        #: every node of one run records into that run's registry.  Purely
        #: write-only — nothing here feeds back into protocol behaviour.
        self._obs = obs_active()

    def note_contact(self, node_id: int, time: Optional[float] = None) -> bool:
        """Record a (successful) interaction with ``node_id`` in the routing table.

        ``time`` defaults to the current simulated time; hot callers that
        record many contacts within one event (e.g. the learn-from-responses
        loop of a lookup) pass the clock value once instead of re-reading it
        per contact — the simulated clock cannot advance inside an event.
        """
        if time is None:
            time = self._clock()
        return self.routing_table.add_contact(node_id, time)

    def learn_contacts(
        self,
        contact_ids: Tuple[int, ...],
        candidates: set,
        frontier: list,
        target_id: int,
        time: float,
    ) -> None:
        """Absorb one FIND_NODE reply: extend the lookup state and the table.

        The per-mention bookkeeping of a lookup: contacts not seen before in
        this lookup are added to ``candidates`` and pushed onto the lookup's
        distance-keyed ``frontier`` heap; every listed contact (new or not)
        goes through :meth:`note_contact`, so a subclass hooking that method
        (e.g. the supplemental-list extension) sees every learned contact.
        Stock protocols do not come through here — see
        :meth:`refreshes_deferrable`.
        """
        own_id = self.node_id
        note_contact = self.note_contact
        for contact_id in contact_ids:
            if contact_id != own_id:
                if contact_id not in candidates:
                    candidates.add(contact_id)
                    heappush(frontier, (contact_id ^ target_id, contact_id))
                note_contact(contact_id, time)

    def refreshes_deferrable(self) -> bool:
        """True if a lookup may keep this node's table itself, refreshing once.

        :func:`~repro.kademlia.lookup.iterative_find_node` then does the
        requester-side bookkeeping of :meth:`rpc` and :meth:`learn_contacts`
        inline and refreshes every mentioned member once at the end.  That
        is only the same thing while those methods and :meth:`note_contact`
        are the ones defined here: a subclass overriding any of them keeps
        being called per round-trip and per mention.
        """
        return self.stock_requester and self.config.learn_from_responses

    def rpc(self, target_id: int, request: Any) -> Tuple[bool, Any]:
        """Send one request/response round-trip and do the table bookkeeping.

        A successful round-trip refreshes (or inserts) the responder in the
        routing table and marks this node as having reached the network; a
        failed one increments the responder's failure streak, evicting it
        once the streak hits the staleness limit ``s``.
        """
        transport = self.transport
        if transport is None:
            self._require_bound()
        ok, response = transport.rpc(self.node_id, target_id, request)
        if ok:
            self._ever_connected = True
            self.note_contact(target_id, self._clock())
        else:
            evicted = self.routing_table.record_failure(target_id)
            if evicted and self._obs is not None:
                self._obs.inc("kademlia.evictions")
        return ok, response

    def _reseed_if_isolated(self) -> bool:
        """Re-insert the configured bootstrap contact when cut off.

        Two situations require falling back to the configured bootstrap
        address, which deployed Kademlia nodes keep outside the routing
        table:

        * the routing table has emptied out (every contact evicted after
          failed round-trips, e.g. under heavy message loss with ``s = 1``);
        * the node has never completed a successful outgoing round-trip —
          its initial join failed, so whatever contacts it has accumulated
          since (other newcomers that bootstrapped *from* it) may form an
          island that is invisible to the rest of the network.

        Without this fallback either situation is permanent: the node (or
        its island) can never re-discover the main network, because lookups
        only traverse already-known contacts.  The paper's simulations rely
        on the corresponding recovery — joining nodes "are not able to
        achieve connectivity immediately" (Section 5.8.2) but every node is
        connected once the network stabilises.
        """
        if not self.config.bootstrap_reseed:
            return False
        if self._ever_connected and self.routing_table.contact_count() > 0:
            return False
        if self.bootstrap_id is None or self.bootstrap_id == self.node_id:
            return False
        if self.note_contact(self.bootstrap_id):
            self.reseeds_performed += 1
            return True
        return False

    def close(self) -> None:
        """The node left for good: empty its routing table and data store."""
        self.routing_table.clear()
        self.storage.clear()

    # ------------------------------------------------------------------
    # Server side: handling incoming RPCs
    # ------------------------------------------------------------------
    def handle_request(self, sender_id: int, request: Any) -> Optional[Any]:
        """Dispatch an incoming RPC and return the response payload.

        Every received request also updates the routing table with the
        sender — "when a Kademlia node receives any message from another
        node, it updates the appropriate k-bucket for the sender's node id".

        FIND_NODE is checked first: lookups make it by far the most common
        request, and the dispatch order is observable only through speed
        (the request types are mutually exclusive).  Its answer is
        :meth:`RoutingTable.find_node_reply` in an envelope — the same call
        a lookup makes directly when it skips the envelope — unless a
        subclass hooks :meth:`note_contact`, which then hears of the sender
        as it does for every other request.
        """
        now = self._clock()
        if isinstance(request, FindNodeRequest):
            table = self.routing_table
            if self.stock_responder:
                closest = table.find_node_reply(sender_id, request.target_id, now)
            else:
                self.note_contact(sender_id, now)
                closest = table.closest_contacts(request.target_id)
            return FindNodeResponse(
                responder_id=self.node_id, contacts=tuple(closest)
            )
        self.note_contact(sender_id, now)
        if isinstance(request, PingRequest):
            return PongResponse(responder_id=self.node_id)
        if isinstance(request, StoreRequest):
            self.storage.put(request.key_id, request.value, time=self.now)
            return StoreResponse(responder_id=self.node_id, stored=True)
        if isinstance(request, FindValueRequest):
            value = self.storage.get(request.key_id)
            closest = self.routing_table.closest_contacts(
                request.key_id, self.config.bucket_size
            )
            return FindValueResponse(
                responder_id=self.node_id, value=value, contacts=tuple(closest)
            )
        return None

    # ------------------------------------------------------------------
    # Client side: operations initiated by this node
    # ------------------------------------------------------------------
    def ping(self, target_id: int) -> bool:
        """Ping ``target_id``; update the routing table with the outcome."""
        ok, _response = self.rpc(target_id, PingRequest())
        return ok

    def join(self, bootstrap_id: Optional[int]) -> LookupResult:
        """Join the network via ``bootstrap_id``.

        The very first node of a network has no bootstrap node; it simply
        starts with an empty routing table.  Every other node inserts the
        bootstrap contact and performs a lookup for its own identifier,
        which populates its routing table and announces it to the nodes on
        the lookup path (paper Section 5.3).
        """
        self._require_bound()
        if bootstrap_id is not None and bootstrap_id != self.node_id:
            self.bootstrap_id = bootstrap_id
            self.note_contact(bootstrap_id)
        result = self.lookup(self.node_id)
        return result

    def lookup(self, target_id: int) -> LookupResult:
        """Perform one iterative FIND_NODE lookup.

        Under observability each lookup accumulates its per-hop
        virtual-time latency (rounds x RTT + failures x timeout penalty,
        see :mod:`repro.obs.virtualtime`) into the run's registry —
        identity-free, since :class:`LookupResult` already carries the
        round/failure structure either way.
        """
        self._require_bound()
        self._reseed_if_isolated()
        self.lookups_performed += 1
        result = iterative_find_node(self, target_id)
        registry = self._obs
        if registry is not None:
            registry.inc("kademlia.lookups")
            registry.observe(
                "kademlia.lookup.virtual_latency", lookup_virtual_latency(result)
            )
            registry.observe("kademlia.lookup.rounds", result.rounds)
            if result.failures:
                registry.inc("kademlia.lookup.failed_rpcs", result.failures)
        return result

    def disseminate(self, key_id: int, value: Any) -> Tuple[LookupResult, int]:
        """Store ``value`` on the ``k`` nodes closest to ``key_id``.

        Returns the locating lookup's result and the number of nodes that
        acknowledged the STORE.
        """
        self._require_bound()
        self.disseminations_performed += 1
        locate = self.lookup(key_id)
        stored = 0
        request = StoreRequest(key_id=key_id, value=value)
        for node_id in locate.contacted:
            ok, response = self.rpc(node_id, request)
            if ok and isinstance(response, StoreResponse) and response.stored:
                stored += 1
        return locate, stored

    def retrieve(self, key_id: int) -> Optional[Any]:
        """Look up the value stored under ``key_id`` (None if not found)."""
        self._require_bound()
        if self.storage.has(key_id):
            return self.storage.get(key_id)
        locate = self.lookup(key_id)
        request = FindValueRequest(key_id=key_id)
        for node_id in locate.contacted:
            ok, response = self.rpc(node_id, request)
            if ok and isinstance(response, FindValueResponse) and response.found:
                return response.value
        return None

    def bucket_refresh(self, rng: random.Random) -> int:
        """Perform the periodic maintenance refresh (paper: every 60 minutes).

        Looks up a random identifier in the range of each refreshed bucket so
        the node can "learn about previously unknown contacts and stale
        contacts in its routing table".  Returns the number of lookups done.
        """
        self._require_bound()
        self._reseed_if_isolated()
        self.refreshes_performed += 1
        if self._obs is not None:
            self._obs.inc("kademlia.refreshes")
        targets = self.routing_table.refresh_targets(rng)
        for target in targets:
            iterative_find_node(self, target)
        return len(targets)

    def maintenance_refresh(self, rng: random.Random) -> int:
        """The overlay seam's maintenance hook: Kademlia's bucket refresh."""
        return self.bucket_refresh(rng)

    # ------------------------------------------------------------------
    def routing_table_snapshot(self) -> List[int]:
        """Return the current contact ids (the node's row of the snapshot)."""
        return self.routing_table.contact_ids()

    def snapshot_version(self):
        """Version stamp of :meth:`routing_table_snapshot`'s *membership*.

        The incremental connectivity-graph maintainer skips rebuilding a
        node's row while this value is unchanged.  Subclasses that extend
        the snapshot beyond the routing table (e.g. supplemental links)
        must extend the stamp accordingly.
        """
        return self.routing_table.membership_version
