"""Iterative node lookup.

The lookup procedure (paper Section 4.1): given a target identifier, a node
queries the ``alpha`` contacts from its routing table closest to the target;
each response contributes the responder's own list of closest contacts,
which are then queried in turn, so the requester iteratively gets closer to
the target.  The procedure ends when ``k`` nodes have been successfully
contacted or no progress can be made.

Routing-table maintenance happens as a side effect, and this side effect is
what the paper's connectivity results hinge on:

* the *responder* of every successful round-trip is added to (or refreshed
  in) the requester's routing table;
* the *requester* is added to the responder's table when the request is
  handled (see :meth:`KademliaProtocol.handle_request`);
* every failed round-trip increments the contacted node's failure streak in
  the requester's table, removing it once the streak reaches the staleness
  limit ``s``;
* every contact listed in a reply is offered to the requester's table —
  refreshed if it is a member, inserted if its bucket has room.

A lookup runs inside one simulator event: the clock stands still and nothing
but the lookup touches the requester's table.  Each bucket's
least-recently-seen order afterwards therefore depends only on every
member's *last* mention, which is what lets :func:`iterative_find_node`
refresh each member once, after the last round-trip, instead of once per
mention.  The per-mention formulation stays as the path of any protocol
subclass that hooks the bookkeeping — and as the oracle the deferred one is
tested against (``tests/kademlia/test_lookup_deferred.py``).

One hop, two ways.  A FIND_NODE round-trip is: count the request, resolve
the target, draw the request leg, let the responder note the sender and
pick its ``k`` closest contacts, draw the response leg — the loss model of
:mod:`repro.simulator.transport`, which owns its statement.
``Transport.rpc`` plus ``handle_request`` do that around a
``FindNodeRequest`` / ``FindNodeResponse`` pair.  The deferred lookup does
the same steps itself, in the same order on the same counters and random
stream, and asks the responder's table directly
(:meth:`RoutingTable.find_node_reply`, at the clock value the lookup
already read — one event, one clock) when, and only when, nobody could
tell the difference:

* per lookup — the transport's class has the stock ``Transport.rpc``.  A
  subclass that overrides ``rpc`` (to record, delay, reorder …) or an
  object that merely quacks like a transport is handed every round-trip
  whole;
* per responder — its class has the stock ``handle_request`` and
  ``note_contact`` (``KademliaProtocol.stock_responder``).  Any other
  protocol registered under the transport's name still has its
  ``handle_request`` called with the request object and its reply
  unwrapped, between the same two draws.

Neither is a setting.  The envelope form is the oracle of the direct one:
the suites named above drive both over the same seeded runs and compare
every table, counter and the random stream's state after every operation.
The per-mention lookup, STORE, PING and FIND_VALUE always go through
``rpc``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Set, TYPE_CHECKING

from repro.kademlia.messages import FindNodeRequest, FindNodeResponse
from repro.overlay.base import LookupResult
from repro.simulator.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.kademlia.protocol import KademliaProtocol

__all__ = ["LookupResult", "iterative_find_node"]


def iterative_find_node(protocol: "KademliaProtocol", target_id: int) -> LookupResult:
    """Run the iterative FIND_NODE procedure from ``protocol`` for ``target_id``.

    Same lookup, two ways of keeping the requester's routing table: stock
    bookkeeping defers the refreshes (:func:`_find_node_deferred`); a
    subclass that overrides ``note_contact``, ``rpc`` or ``learn_contacts``
    — or a configuration that does not learn from replies — goes through
    those methods once per round-trip and per mention
    (:func:`_find_node_per_mention`).
    """
    if protocol.refreshes_deferrable():
        return _find_node_deferred(protocol, target_id)
    return _find_node_per_mention(protocol, target_id)


def _find_node_per_mention(protocol: "KademliaProtocol", target_id: int) -> LookupResult:
    """The lookup with every bookkeeping step made through ``protocol``'s methods.

    One :class:`FindNodeRequest` serves every round-trip of the lookup (the
    request is an immutable value object) and the clock is read once — the
    whole lookup runs inside a single simulator event, during which
    simulated time cannot advance.
    """
    config = protocol.config
    k = config.bucket_size
    alpha = config.alpha
    learn = config.learn_from_responses
    own_id = protocol.node_id
    rpc = protocol.rpc
    learn_contacts = protocol.learn_contacts
    now = protocol.now
    request = FindNodeRequest(target_id=target_id)

    # The frontier is a lazy min-heap over (distance, id).  Invariant:
    # the heap holds exactly the known-but-unqueried candidates — every
    # popped id is queried immediately, and an id learned again after
    # being queried is kept out by the ``candidates`` dedupe set — so
    # popping ``alpha`` entries yields exactly the ``alpha`` closest
    # unqueried candidates, the same batch the per-round
    # sort-the-whole-frontier formulation selected.  XOR distances to a
    # fixed target are unique per id, so the order admits no ties.
    seeds = protocol.routing_table.closest_contacts(target_id, k)
    candidates: Set[int] = set(seeds)
    frontier = [(node_id ^ target_id, node_id) for node_id in seeds]
    heapify(frontier)
    responded: Set[int] = set()
    queried_count = 0
    failure_count = 0
    round_count = 0

    while len(responded) < k and frontier:
        batch = [heappop(frontier)[1] for _ in range(min(alpha, len(frontier)))]
        round_count += 1

        for node_id in batch:
            queried_count += 1
            ok, response = rpc(node_id, request)
            if not ok or not isinstance(response, FindNodeResponse):
                failure_count += 1
                continue
            responded.add(node_id)
            if learn:
                learn_contacts(
                    response.contacts, candidates, frontier, target_id, now
                )
            else:
                for contact_id in response.contacts:
                    if contact_id != own_id and contact_id not in candidates:
                        candidates.add(contact_id)
                        heappush(frontier, (contact_id ^ target_id, contact_id))
            if len(responded) >= k:
                break

    return LookupResult(
        target_id=target_id,
        contacted=sorted(responded, key=target_id.__xor__)[:k],
        queried=queried_count,
        failures=failure_count,
        rounds=round_count,
    )


def _find_node_deferred(protocol: "KademliaProtocol", target_id: int) -> LookupResult:
    """The lookup with one routing-table refresh per contact, after the last round-trip.

    Same round-trips, same frontier and same table afterwards as
    :func:`_find_node_per_mention` on a stock protocol, but a reply of
    ``k`` mostly-known contacts costs a few C-level set operations instead
    of ``k`` refreshes: every id heard of (responders and reply entries) is
    appended to ``mentions``, and at the end each member among them is
    moved to its bucket's tail once, in order of last mention — the order
    ``k**2`` per-mention moves would have left.

    What reads or changes *membership* cannot wait and stays exact:

    * an unknown id is offered to its bucket on first sight.  A full bucket
      rejects it, and would reject it at every later mention too — a slot
      opens only by eviction — so it is parked in ``rejected`` and offered
      again only after an eviction in that very bucket (``retry``, which
      also holds the evicted id itself);
    * a failed round-trip extends the contact's streak from 0 if the
      contact was mentioned earlier in this lookup (the refresh that has
      not happened yet would have reset it);
    * a contact that failed but stayed (streak below ``s``) is reset by a
      later mention, and only by that: the final pass keeps the streak of
      whatever is still in ``failed_kept``.

    The requester half of :meth:`KademliaProtocol.rpc` is done here on the
    round-trip's outcome, and on a stock transport so is the round-trip
    itself (module docstring, "One hop, two ways").
    """
    transport = protocol.transport
    if transport is None:
        protocol._require_bound()
    # Decided once per lookup: drive the stock transport leg by leg from
    # here, or hand every round-trip to whatever ``rpc`` this one has.
    own_wire = getattr(type(transport), "rpc", None) is Transport.rpc
    if not own_wire:
        transport_rpc = transport.rpc
    else:
        stats = transport.stats
        request_counts = transport.obs_request_counts
        nodes = transport.network.nodes_by_id
        protocol_name = transport.protocol_name
        loss = transport.loss_probability
        lossy = loss > 0.0
        draw = transport.rng.random
    config = protocol.config
    k = config.bucket_size
    alpha = config.alpha
    own_id = protocol.node_id
    now = protocol.now
    registry = protocol._obs
    table = protocol.routing_table
    index = table._contact_index
    add_contact = table.add_contact
    record_failure = table.record_failure
    request = FindNodeRequest(target_id=target_id)

    # Frontier and dedupe set as in the per-mention path; ``candidates``
    # additionally holds the requester's own id, which replies list (the
    # responder has just learned it) and which is neither queried nor stored.
    seeds = table.closest_contacts(target_id, k)
    candidates: Set[int] = set(seeds)
    candidates.add(own_id)
    frontier = [(node_id ^ target_id, node_id) for node_id in seeds]
    heapify(frontier)
    responded: Set[int] = set()
    queried_count = 0
    failure_count = 0
    round_count = 0

    mentions: List[int] = []
    rejected: Set[int] = set()
    retry: Set[int] = set()
    failed_kept: Set[int] = set()
    add_attempts = 0
    envelope_hops = 0

    while len(responded) < k and frontier:
        batch = [heappop(frontier)[1] for _ in range(min(alpha, len(frontier)))]
        round_count += 1

        for node_id in batch:
            queried_count += 1
            # One round-trip: ``contacts`` is the reply's contact list, or
            # None when the round-trip failed or was not answered with one.
            contacts = None
            if own_wire:
                stats.requests_sent += 1
                if request_counts is not None:
                    request_counts["FindNodeRequest"] = (
                        request_counts.get("FindNodeRequest", 0) + 1
                    )
                ok = False
                node = nodes.get(node_id)
                if node is None or not node.alive:
                    stats.requests_to_dead_nodes += 1
                elif lossy and draw() < loss:
                    stats.requests_lost += 1
                else:
                    responder = node.protocols.get(protocol_name)
                    if responder is None:
                        stats.requests_to_dead_nodes += 1
                    else:
                        try:
                            direct = responder.stock_responder
                        except AttributeError:  # not a Kademlia protocol
                            direct = False
                        if direct:
                            # The direct hop: no envelope either way.
                            contacts = responder.routing_table.find_node_reply(
                                own_id, target_id, now
                            )
                            answered = True
                        else:
                            envelope_hops += 1
                            response = responder.handle_request(own_id, request)
                            answered = response is not None
                            if isinstance(response, FindNodeResponse):
                                contacts = response.contacts
                        if answered and not (lossy and draw() < loss):
                            ok = True
                            stats.round_trips_ok += 1
                        else:
                            stats.responses_lost += 1
            else:
                envelope_hops += 1
                ok, response = transport_rpc(own_id, node_id, request)
                if ok and isinstance(response, FindNodeResponse):
                    contacts = response.contacts
            if not ok:
                failure_count += 1
                contact = index.get(node_id)
                if contact is None:
                    continue
                if contact.consecutive_failures and node_id in mentions:
                    contact.consecutive_failures = 0
                if record_failure(node_id):
                    if registry is not None:
                        registry.inc("kademlia.evictions")
                    retry.add(node_id)
                    if rejected:
                        # Bucket index + 1 of the slot that just opened.
                        opened = (own_id ^ node_id).bit_length()
                        reopened = {
                            other
                            for other in rejected
                            if (own_id ^ other).bit_length() == opened
                        }
                        rejected -= reopened
                        retry |= reopened
                else:
                    failed_kept.add(node_id)
                continue

            protocol._ever_connected = True
            mentions.append(node_id)
            if node_id in retry:
                retry.remove(node_id)
                add_attempts += 1
                if not add_contact(node_id, now):
                    rejected.add(node_id)
            if contacts is None:
                failure_count += 1
                continue
            responded.add(node_id)

            mentions += contacts
            if not candidates.issuperset(contacts) or (
                retry and not retry.isdisjoint(contacts)
            ):
                # Reply order decides who gets a contested slot.
                for contact_id in contacts:
                    if contact_id not in candidates:
                        candidates.add(contact_id)
                        heappush(frontier, (contact_id ^ target_id, contact_id))
                        if contact_id in index:
                            continue
                    elif contact_id in retry:
                        retry.remove(contact_id)
                    else:
                        continue
                    add_attempts += 1
                    if not add_contact(contact_id, now):
                        rejected.add(contact_id)
            if failed_kept and not failed_kept.isdisjoint(contacts):
                for contact_id in failed_kept.intersection(contacts):
                    index[contact_id].consecutive_failures = 0
                failed_kept.difference_update(contacts)
            if len(responded) >= k:
                break

    # dict.fromkeys over the reversed log keeps each id at its last mention;
    # walking that dict backwards yields earliest-last-mention first.
    touches = table.refresh_contacts(
        reversed(dict.fromkeys(reversed(mentions))), now, failed_kept
    )
    if registry is not None:
        registry.inc("kademlia.lookup.mentions", len(mentions))
        registry.inc("kademlia.lookup.touches", touches)
        registry.inc("kademlia.lookup.add_attempts", add_attempts)
        registry.inc("kademlia.lookup.direct_hops", queried_count - envelope_hops)
        registry.inc("kademlia.lookup.envelope_hops", envelope_hops)

    return LookupResult(
        target_id=target_id,
        contacted=sorted(responded, key=target_id.__xor__)[:k],
        queried=queried_count,
        failures=failure_count,
        rounds=round_count,
    )
