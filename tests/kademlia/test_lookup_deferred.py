"""The deferred-refresh lookup against its oracle, the per-mention lookup.

A stock :class:`KademliaProtocol` lets ``iterative_find_node`` keep the
requester's routing table itself: membership changes happen as they
occur, but every mentioned member is refreshed once, after the last
round-trip.  A subclass that overrides ``note_contact`` — here one that
only calls ``super()`` — forces the original formulation, one refresh per
mention through the protocol's own methods.  Both must leave the same
tables and return the same results, lookup after lookup.

Built to fail: with the final pass walking the mentions in the wrong order,
or with the offer-again-after-an-eviction rule removed, the seeded runs
and the hand-built cases below diverge (checked by planting both bugs).

The deferred lookup also has two ways of making one hop.  On the stock
``Transport`` it performs the round-trip itself and asks a stock
responder's table directly; on a transport whose ``rpc`` is overridden —
here by one that only calls ``super().rpc`` — every hop is a
``FindNodeRequest`` through ``rpc`` and ``handle_request``.  The second
half of this file holds the two to the same state of *every* node, the
same transport counters and the same position of the loss stream after
every operation, and walks the hop's corner cases one by one.  Planted
and caught: the response leg drawn before the responder ran, the
responder not noting the sender, the reply cut to ``k`` before sorting,
the contact cache rebuilt from the id index, a subclass responder served
directly, and a request to a dead node not counted as sent.
"""

import random

import pytest

from repro.extensions.adversarial import MaliciousKademliaProtocol
from repro.extensions.supplemental import SupplementalLinksProtocol
from repro.kademlia.config import KademliaConfig
from repro.kademlia.messages import FindNodeResponse
from repro.kademlia.protocol import KademliaProtocol
from repro.simulator.network import Network
from repro.simulator.node import SimNode
from repro.simulator.transport import Transport


class PerMentionProtocol(KademliaProtocol):
    """Behaves like the stock protocol, but takes the per-mention lookup path."""

    def note_contact(self, node_id, time=None):
        return super().note_contact(node_id, time)


class EnvelopeTransport(Transport):
    """The stock transport, except that the lookup may not bypass ``rpc``."""

    def rpc(self, sender_id, target_id, request):
        return super().rpc(sender_id, target_id, request)


class SloppyResponder(MaliciousKademliaProtocol):
    """Answers FIND_NODE with an unsorted reply that repeats contacts."""

    def _poisoned_contacts(self, target_id):
        ordered = sorted(self._accomplices)
        return tuple(ordered[::-1] + ordered[::2] + [self.node_id])


def test_the_two_paths_are_the_ones_under_test():
    config = KademliaConfig(bit_length=16)
    assert KademliaProtocol(1, config).refreshes_deferrable()
    assert MaliciousKademliaProtocol(1, config).refreshes_deferrable()
    assert not PerMentionProtocol(1, config).refreshes_deferrable()
    unlearning = KademliaConfig(bit_length=16, learn_from_responses=False)
    assert not KademliaProtocol(1, unlearning).refreshes_deferrable()
    # Who a lookup may ask without an envelope: resolved per class.
    assert KademliaProtocol.stock_responder
    for subclass in (
        MaliciousKademliaProtocol, SloppyResponder, SupplementalLinksProtocol, PerMentionProtocol
    ):
        assert not subclass.stock_responder
    assert EnvelopeTransport.rpc is not Transport.rpc


def table_state(protocol):
    """Everything a lookup may change in ``protocol``'s routing table."""
    table = protocol.routing_table
    return {
        "buckets": [
            (
                bucket.index,
                [
                    (c.node_id, c.consecutive_failures, c.last_seen, c.added_at)
                    for c in bucket.contacts()
                ],
            )
            for bucket in table.buckets()
        ],
        "membership_version": table.membership_version,
        # Read raw: the cache remembers the bucket order of the moment it
        # was built, and snapshots persist that order.
        "cache": table._contacts_cache,
        "index": sorted(table._contact_index),
        "ever_connected": protocol.ever_connected,
    }


def node_state(protocol):
    """``table_state`` plus what the extensions keep beside the table."""
    state = table_state(protocol)
    state["stored"] = sorted(protocol.storage.keys())
    for extra in (
        "poisoned_responses", "dropped_stores", "_supplemental", "_supplemental_failures"
    ):
        if hasattr(protocol, extra):
            value = getattr(protocol, extra)
            state[extra] = list(value.items()) if isinstance(value, dict) else value
    return state


def wire_state(transport):
    """The five counters, the per-type request counts and where the loss stream stands."""
    stats = transport.stats
    return {
        "requests_sent": stats.requests_sent,
        "requests_lost": stats.requests_lost,
        "responses_lost": stats.responses_lost,
        "requests_to_dead_nodes": stats.requests_to_dead_nodes,
        "round_trips_ok": stats.round_trips_ok,
        # A copy: the transport keeps counting into its own dict.
        "request_counts": dict(transport.obs_request_counts or {}),
        "rng": transport.rng.getstate(),
    }


# ----------------------------------------------------------------------
# Seeded churn + loss simulations
# ----------------------------------------------------------------------
BIT_LENGTH = 16


def drive(protocol_class, k, s, loss, seed, sloppy, transport_class=Transport, mixed=False):
    """Run one seeded simulation; yield a checkpoint after every operation.

    Every random decision comes from ``seed`` alone, so two runs that
    differ only in ``protocol_class`` or ``transport_class`` issue the
    same operations — and, while the two paths agree, the same round-trips
    and therefore the same loss draws.  A checkpoint holds the state of
    every node, not only the requester's: a hop changes the responder's
    table too.  ``mixed`` adds responders no lookup may serve directly.
    """
    config = KademliaConfig(
        bit_length=BIT_LENGTH, bucket_size=k, alpha=3, staleness_limit=s
    )
    rng = random.Random(seed)
    network = Network()
    transport = transport_class(
        network, loss_probability=loss, rng=random.Random(seed + 1)
    )
    clock = {"now": 0.0}
    protocols = {}

    def spawn(cls=protocol_class, **kwargs):
        node_id = rng.randrange(1, 2**BIT_LENGTH)
        while node_id in protocols:
            node_id = rng.randrange(1, 2**BIT_LENGTH)
        alive = sorted(n.node_id for n in network.alive_nodes())
        node = SimNode(node_id)
        protocol = cls(node_id, config, **kwargs)
        protocol.bind(transport, lambda: clock["now"])
        node.register_protocol(KademliaProtocol.protocol_name, protocol)
        network.add_node(node)
        protocols[node_id] = protocol
        result = protocol.join(rng.choice(alive) if alive else None)
        return protocol, result

    def checkpoint(label, requester, result=None):
        world = {node_id: node_state(protocols[node_id]) for node_id in sorted(protocols)}
        return label, requester.node_id, result, world, wire_state(transport)

    for _ in range(24):
        protocol, result = spawn()
        yield checkpoint("join", protocol, result)
    if mixed:
        live = sorted(protocols)
        for cls, kwargs in (
            (MaliciousKademliaProtocol, {"accomplices": rng.sample(live, 5)}),
            (SupplementalLinksProtocol, {"extra_links": 3}),
            (SupplementalLinksProtocol, {"extra_links": 3}),
            (PerMentionProtocol, {}),
        ):
            protocol, result = spawn(cls, **kwargs)
            yield checkpoint("join", protocol, result)
    if sloppy:
        # Two compromised nodes that refer to each other, to a few live
        # nodes and to ids nobody holds.
        live = sorted(protocols)
        for _ in range(2):
            accomplices = rng.sample(live, 6) + [
                rng.randrange(1, 2**BIT_LENGTH) for _ in range(3)
            ]
            protocol, result = spawn(SloppyResponder, accomplices=accomplices)
            yield checkpoint("join", protocol, result)

    for step in range(160):
        clock["now"] += rng.random() * 10.0
        alive = sorted(
            n.node_id
            for n in network.alive_nodes()
            if not isinstance(protocols[n.node_id], SloppyResponder)
        )
        draw = rng.random()
        if draw < 0.55:
            requester = protocols[rng.choice(alive)]
            result = requester.lookup(rng.randrange(2**BIT_LENGTH))
            yield checkpoint("lookup", requester, result)
        elif draw < 0.70 and len(alive) > 8:
            network.remove_node(rng.choice(alive), time=clock["now"])
        elif draw < 0.85:
            protocol, result = spawn()
            yield checkpoint("join", protocol, result)
        elif draw < 0.95:
            requester = protocols[rng.choice(alive)]
            count = requester.bucket_refresh(rng)
            yield checkpoint("refresh", requester, count)
        else:
            requester = protocols[rng.choice(alive)]
            result = requester.disseminate(rng.randrange(2**BIT_LENGTH), step)
            yield checkpoint("disseminate", requester, result)
        if step % 20 == 19:
            # What a snapshot reads (and, by reading, rebuilds).
            yield "snapshot", None, None, {
                node_id: protocol.routing_table_snapshot()
                for node_id, protocol in sorted(protocols.items())
            }, None

    yield "final", None, transport.stats, {
        node_id: node_state(protocol) for node_id, protocol in sorted(protocols.items())
    }, wire_state(transport)


@pytest.mark.parametrize("sloppy", [False, True], ids=["honest", "sloppy-responder"])
@pytest.mark.parametrize("loss", [0.0, 0.2])
@pytest.mark.parametrize("s", [1, 5])
@pytest.mark.parametrize("k", [2, 5, 20])
def test_seeded_simulations_agree_after_every_lookup(k, s, loss, sloppy):
    seed = 1000 * k + 10 * s + int(loss * 10)
    deferred = drive(KademliaProtocol, k, s, loss, seed, sloppy)
    per_mention = drive(PerMentionProtocol, k, s, loss, seed, sloppy)
    checkpoints = 0
    for got, expected in zip(deferred, per_mention, strict=True):
        assert got == expected, f"diverged at checkpoint {checkpoints}: {got[:2]}"
        checkpoints += 1
    assert checkpoints > 100


@pytest.mark.parametrize("requester", [KademliaProtocol, PerMentionProtocol])
@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("s", [1, 5])
@pytest.mark.parametrize("k", [2, 5, 20])
def test_direct_and_envelope_hops_agree_after_every_operation(k, s, loss, requester):
    """Transport axis: the lookup's own round-trip against ``rpc`` + ``handle_request``.

    Mixed networks: malicious, sloppy, supplemental-link and
    ``note_contact``-hooking responders sit among the stock ones, so one
    lookup mixes direct hops with hops that must keep their envelope.
    With ``PerMentionProtocol`` requesters nothing is direct on either side
    — the axis must then make no difference at all.
    """
    seed = 2000 * k + 10 * s + int(loss * 10)
    direct = drive(requester, k, s, loss, seed, sloppy=True, mixed=True)
    envelope = drive(
        requester, k, s, loss, seed, sloppy=True, mixed=True,
        transport_class=EnvelopeTransport,
    )
    checkpoints = 0
    for got, expected in zip(direct, envelope, strict=True):
        assert got == expected, f"diverged at checkpoint {checkpoints}: {got[:2]}"
        checkpoints += 1
    assert checkpoints > 100


def test_the_two_hops_are_the_ones_under_test(obs_enabled):
    """Direct hops on the stock transport only, and never towards an extension.

    Run under observability, which adds the per-type request counts to every
    checkpoint: the direct hop has to keep those as well.
    """
    direct = list(drive(KademliaProtocol, 5, 1, 0.1, 11, sloppy=True, mixed=True))
    direct_hops = obs_enabled.counter("kademlia.lookup.direct_hops")
    assert direct_hops > 1000
    assert 0 < obs_enabled.counter("kademlia.lookup.envelope_hops") < direct_hops
    obs_enabled.clear()
    envelope = list(
        drive(
            KademliaProtocol, 5, 1, 0.1, 11, sloppy=True, mixed=True,
            transport_class=EnvelopeTransport,
        )
    )
    assert obs_enabled.counter("kademlia.lookup.direct_hops") == 0
    assert obs_enabled.counter("kademlia.lookup.envelope_hops") > 1000
    assert direct == envelope
    assert direct[-1][4]["request_counts"]["FindNodeRequest"] > 1000


def test_the_simulations_reach_the_membership_corner_cases(obs_enabled):
    """The seeded runs are only a test if evictions, rejections and retries occur."""
    for _ in drive(KademliaProtocol, 2, 1, 0.2, 7, sloppy=True):
        pass
    assert obs_enabled.counter("kademlia.evictions") > 50
    touches = obs_enabled.counter("kademlia.lookup.touches")
    assert 0 < touches < obs_enabled.counter("kademlia.lookup.mentions")
    assert obs_enabled.counter("kademlia.lookup.add_attempts") > 0


# ----------------------------------------------------------------------
# Hand-built cases on a scripted transport
# ----------------------------------------------------------------------
class ScriptedTransport:
    """Round-trips answered from a table: ``target -> contacts`` or ``None`` (fails)."""

    def __init__(self, replies):
        self.replies = replies
        self.queried = []

    def rpc(self, sender_id, target_id, request):
        self.queried.append(target_id)
        contacts = self.replies.get(target_id)
        if contacts is None:
            return False, None
        return True, FindNodeResponse(responder_id=target_id, contacts=tuple(contacts))


def scripted_lookup(protocol_class, replies, members, k, s, target=0, prepare=None):
    """Owner 0 with ``members`` in its table looks ``target`` up, one query per round.

    Identifiers are 8 bits wide and the owner is 0, so the bucket of an id
    is its bit length: 4-7 share a bucket, as do 8-15 and 16-31.  With
    ``alpha`` = 1 and target 0 the contacts are queried in ascending id
    order.
    """
    config = KademliaConfig(bit_length=8, bucket_size=k, alpha=1, staleness_limit=s)
    protocol = protocol_class(0, config)
    transport = ScriptedTransport(replies)
    protocol.bind(transport, lambda: 7.0)
    for member in members:
        assert protocol.routing_table.add_contact(member, 1.0)
    if prepare is not None:
        prepare(protocol.routing_table)
    result = protocol.lookup(target)
    return protocol.routing_table, transport.queried, result, table_state(protocol)


def both_paths(**kwargs):
    """Run a scripted lookup on both paths, require agreement, return the stock one."""
    table, queried, result, state = scripted_lookup(KademliaProtocol, **kwargs)
    _, oracle_queried, oracle_result, oracle_state = scripted_lookup(
        PerMentionProtocol, **kwargs
    )
    assert queried == oracle_queried
    assert result == oracle_result
    assert state == oracle_state
    return table, queried


def bucket_order(table, node_id):
    return table.bucket_for(node_id).contact_ids()


def streak(table, node_id):
    return table._contact_index[node_id].consecutive_failures


def test_failure_after_an_earlier_mention_restarts_the_streak():
    # 9 already failed twice.  8 answers first and lists 9 (streak back to
    # 0, had the refresh happened on the spot); then 9 fails: 1, not 3.
    def two_failures(table):
        table.record_failure(9)
        table.record_failure(9)

    table, queried = both_paths(
        replies={8: [9]}, members=[8, 9], k=4, s=3, prepare=two_failures
    )
    assert queried == [8, 9]
    assert table.contains(9) and streak(table, 9) == 1


def test_failure_without_a_mention_extends_the_streak():
    def one_failure(table):
        table.record_failure(9)

    table, _ = both_paths(
        replies={8: [10]}, members=[8, 9], k=4, s=3, prepare=one_failure
    )
    assert streak(table, 9) == 2


def test_mention_after_a_failure_resets_the_streak():
    # 8 fails and is kept (s = 2); 9 then lists it.
    table, queried = both_paths(replies={9: [8]}, members=[8, 9], k=4, s=2)
    assert queried == [8, 9]
    assert table.contains(8) and streak(table, 8) == 0
    assert bucket_order(table, 8) == [9, 8]


def test_failed_but_kept_contact_is_not_reset_by_the_final_pass():
    # 8 lists 9, then 9 fails and nobody mentions it again: the final pass
    # moves and time-stamps 9 for 8's mention but must leave the streak.
    table, queried = both_paths(replies={8: [9]}, members=[8, 9], k=4, s=2)
    assert queried == [8, 9]
    assert streak(table, 9) == 1
    assert table._contact_index[9].last_seen == 7.0
    assert bucket_order(table, 8) == [8, 9]


def test_evicted_contact_is_added_again_at_its_next_mention():
    table, queried = both_paths(replies={9: [8, 10]}, members=[8, 9], k=4, s=1)
    assert queried == [8, 9, 10]
    assert table.contains(8)
    assert table._contact_index[8].added_at == 7.0
    assert not table.contains(10)  # learnt from 9, queried, failed, evicted
    assert bucket_order(table, 8) == [9, 8]
    assert table.membership_version == 2 + 4  # 8 out, 8 in, 10 in, 10 out


def test_eviction_reopens_the_bucket_for_a_rejected_contact():
    # 4 and 5 fill their bucket.  4 lists 7 (rejected) and 8 (admitted
    # elsewhere).  5 fails and is evicted, so when 8 lists 7 again it must
    # be offered again.  (7's own query, in between, fails.)
    table, queried = both_paths(
        replies={4: [7, 8], 8: [7]}, members=[4, 5], k=2, s=1
    )
    assert queried == [4, 5, 7, 8]
    assert bucket_order(table, 4) == [4, 7]


def test_rejected_contact_takes_the_reopened_slot_as_responder():
    # As above, but nobody lists 7 a second time: queried from the frontier
    # after 5's eviction, it answers and is inserted as the responder.
    table, queried = both_paths(
        replies={4: [7], 7: []}, members=[4, 5], k=2, s=1
    )
    assert queried == [4, 5, 7]
    assert bucket_order(table, 4) == [4, 7]


def test_reply_order_decides_a_contested_slot():
    # 6 and 7 were rejected, 5 evicted: three ids wait for one slot, and
    # the reply that mentions them next lists 7 first.
    table, queried = both_paths(
        replies={4: [6, 7, 8], 8: [7, 5, 6]}, members=[4, 5], k=2, s=1
    )
    assert queried == [4, 5, 6, 7, 8]
    assert bucket_order(table, 4) == [4, 7]


def test_eviction_elsewhere_does_not_reopen_a_full_bucket(obs_enabled):
    # 9 is evicted from 8's bucket; 7 stays shut out of 4 and 5's and is
    # offered once, however often it is listed.
    # (Only the stock path counts, so the totals below are one lookup's.)
    table, queried = both_paths(
        replies={8: [7, 4, 9], 4: [7, 7, 9]}, members=[4, 5, 8, 9], k=2, s=1, target=8
    )
    assert queried == [8, 9, 4]
    assert bucket_order(table, 4) == [5, 4]
    assert bucket_order(table, 8) == [8, 9]
    assert obs_enabled.counter("kademlia.lookup.add_attempts") == 2  # 7, then 9
    assert obs_enabled.counter("kademlia.lookup.touches") == 3  # 8, 4, 9
    assert obs_enabled.counter("kademlia.lookup.mentions") == 2 + 6


def test_refresh_order_is_last_mention_order():
    # Mentions in order: 8 (responder), 11, 10, 9 | 9 (responder), 10, 8 |
    # 10 (responder), 11 | 11 (responder).  Last mentions: 9, 8, 10, 11.
    table, queried = both_paths(
        replies={8: [11, 10, 9], 9: [10, 8], 10: [11], 11: []},
        members=[11, 10, 9, 8], k=4, s=1,
    )
    assert queried == [8, 9, 10, 11]
    assert bucket_order(table, 8) == [9, 8, 10, 11]


# ----------------------------------------------------------------------
# One hop, corner by corner, on both transports
# ----------------------------------------------------------------------
class ScriptedDraws:
    """A loss stream that hands out the given draws — and fails on one too many."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)

    def getstate(self):
        return tuple(self.draws)


class HopWorld:
    """Node 1 and the nodes it is about to ask; 8-bit ids, ``alpha`` = 1, clock at 7."""

    def __init__(self, transport_class, draws=(), loss=0.5, k=4, s=2):
        self.config = KademliaConfig(
            bit_length=8, bucket_size=k, alpha=1, staleness_limit=s
        )
        self.network = Network()
        self.transport = transport_class(
            self.network, loss_probability=loss, rng=ScriptedDraws(draws)
        )
        self.protocols = {}

    def add(self, node_id, contacts=(), protocol_class=KademliaProtocol):
        """Register ``node_id``; ``protocol_class=None`` leaves it without a protocol."""
        node = SimNode(node_id)
        self.network.add_node(node)
        if protocol_class is None:
            return None
        protocol = protocol_class(node_id, self.config)
        protocol.bind(self.transport, lambda: 7.0)
        node.register_protocol(KademliaProtocol.protocol_name, protocol)
        for contact in contacts:
            assert protocol.routing_table.add_contact(contact, 1.0)
        self.protocols[node_id] = protocol
        return protocol

    def lookup(self, target):
        """Node 1 looks ``target`` up; ``outcome`` is everything the hop(s) may have touched."""
        result = self.protocols[1].lookup(target)
        self.outcome = {
            "result": result,
            "nodes": {
                node_id: node_state(protocol)
                for node_id, protocol in sorted(self.protocols.items())
            },
            "wire": wire_state(self.transport),
        }


def both_transports(scenario):
    """``scenario(transport_class)`` on both transports; they must agree; returns the stock run."""
    world, oracle = scenario(Transport), scenario(EnvelopeTransport)
    assert world.outcome == oracle.outcome
    return world, world.outcome


def counters(outcome):
    wire = outcome["wire"]
    return (
        wire["requests_sent"],
        wire["requests_to_dead_nodes"],
        wire["requests_lost"],
        wire["responses_lost"],
        wire["round_trips_ok"],
    )


def test_hop_to_a_dead_or_unknown_node_counts_and_draws_nothing():
    def scenario(transport_class):
        world = HopWorld(transport_class, draws=[])  # any draw would raise
        world.add(1, contacts=[64, 65])  # 65 is registered nowhere
        world.add(64)
        world.network.remove_node(64, time=5.0)
        world.lookup(1)
        return world

    world, outcome = both_transports(scenario)
    #                            sent dead lost lost ok
    assert counters(outcome) == (2, 2, 0, 0, 0)
    assert outcome["result"].queried == outcome["result"].failures == 2
    assert streak(world.protocols[1].routing_table, 64) == 1
    assert outcome["nodes"][64]["buckets"] == []


@pytest.mark.parametrize("draw, expected", [(0.9, (1, 1, 0, 0, 0)), (0.1, (1, 0, 1, 0, 0))])
def test_hop_to_a_live_node_without_the_protocol_draws_the_request_leg_first(draw, expected):
    def scenario(transport_class):
        world = HopWorld(transport_class, draws=[draw])
        world.add(1, contacts=[64])
        world.add(64, protocol_class=None)
        world.lookup(1)
        return world

    _, outcome = both_transports(scenario)
    assert counters(outcome) == expected
    assert outcome["wire"]["rng"] == ()  # the one draw was taken


def test_request_leg_loss_leaves_the_responder_untouched():
    def scenario(transport_class):
        world = HopWorld(transport_class, draws=[0.1])
        world.add(1, contacts=[64])
        world.add(64)
        world.lookup(1)
        return world

    world, outcome = both_transports(scenario)
    assert counters(outcome) == (1, 0, 1, 0, 0)
    responder = outcome["nodes"][64]
    assert responder["buckets"] == [] and responder["membership_version"] == 0
    assert responder["cache"] is None
    assert streak(world.protocols[1].routing_table, 64) == 1


def test_response_leg_loss_comes_after_the_responder_noted_the_sender():
    def scenario(transport_class):
        world = HopWorld(transport_class, draws=[0.9, 0.1])
        world.add(1, contacts=[64])
        world.add(64)
        world.lookup(1)
        return world

    world, outcome = both_transports(scenario)
    assert counters(outcome) == (1, 0, 0, 1, 0)
    assert outcome["wire"]["rng"] == ()
    assert outcome["result"].contacted == [] and outcome["result"].failures == 1
    responder = world.protocols[64].routing_table
    assert responder.contains(1)
    assert responder._contact_index[1].added_at == 7.0
    assert responder._contacts_cache == [1]  # the reply was computed, then lost
    assert streak(world.protocols[1].routing_table, 64) == 1
    assert not world.protocols[1].ever_connected


def test_each_round_trip_takes_its_two_draws_in_order():
    # 65 is asked first (closer to 1) and takes 0.9, 0.1: request through,
    # response lost.  Swap the legs and it would be lost on the way out, its
    # table untouched; take both draws up front and 64 would get 0.1.
    def scenario(transport_class):
        world = HopWorld(transport_class, draws=[0.9, 0.1, 0.9, 0.9])
        world.add(1, contacts=[64, 65])
        world.add(64)
        world.add(65)
        world.lookup(1)
        return world

    world, outcome = both_transports(scenario)
    assert counters(outcome) == (2, 0, 0, 1, 1)
    assert outcome["result"].contacted == [64]
    assert world.protocols[65].routing_table.contains(1)


def test_response_leg_is_drawn_after_the_responder_ran():
    """A responder that draws from the loss stream itself sees the draw in between."""
    seen = []

    class DrawingResponder(KademliaProtocol):
        def handle_request(self, sender_id, request):
            seen.append(self.transport.rng.random())
            return super().handle_request(sender_id, request)

    def scenario(transport_class):
        del seen[:]
        world = HopWorld(transport_class, draws=[0.9, 0.42, 0.8])
        world.add(1, contacts=[64])
        world.add(64, protocol_class=DrawingResponder)
        world.lookup(1)
        world.outcome["seen"] = list(seen)
        return world

    _, outcome = both_transports(scenario)
    assert outcome["seen"] == [0.42]
    assert counters(outcome) == (1, 0, 0, 0, 1)


def test_sender_unknown_to_a_responder_with_a_full_bucket_is_not_admitted():
    # Seen from 64, ids 1 and 2 share a bucket, and k = 1.
    def scenario(transport_class):
        world = HopWorld(transport_class, loss=0.0, k=1)
        world.add(1, contacts=[64])
        world.add(64, contacts=[2])
        world.lookup(1)
        return world

    world, outcome = both_transports(scenario)
    responder = world.protocols[64].routing_table
    assert not responder.contains(1)
    assert responder.membership_version == 1  # the insert of 2, nothing since
    assert outcome["result"].contacted == [64]
    # The reply was [2], without the sender (k = 1 ends the lookup there).
    assert counters(outcome) == (1, 0, 0, 0, 1)
    assert sorted(world.protocols[1].routing_table._contact_index) == [2, 64]


def test_reply_is_the_k_closest_of_the_whole_table_not_of_its_first_k():
    # 64's cache starts [65, 66, ...] (bucket order); the two closest to 80
    # are 80 itself and 72, in the last buckets.
    def scenario(transport_class):
        world = HopWorld(transport_class, loss=0.0, k=2)
        world.add(1, contacts=[64])
        world.add(64, contacts=[65, 66, 68, 72, 80])
        world.lookup(80)
        return world

    world, outcome = both_transports(scenario)
    assert world.protocols[64].routing_table._contacts_cache[:2] == [65, 66]
    # 1 heard of 80 and 72 (one bucket with 64, k = 2: 80 got the free slot)
    # and asked both; nobody home.
    assert sorted(world.protocols[1].routing_table._contact_index) == [64, 80]
    assert outcome["result"].queried == 3


def test_reply_rebuilds_a_missing_cache_from_the_buckets_at_that_moment():
    def scenario(transport_class):
        world = HopWorld(transport_class, loss=0.0)
        world.add(1, contacts=[64])
        responder = world.add(64, contacts=[66, 67]).routing_table  # one bucket
        responder.add_contact(66, 2.0)  # least recently seen is now 67
        assert responder._contacts_cache is None
        world.lookup(1)
        responder.add_contact(67, 9.0)  # a move; the cache must not notice
        world.snapshot = world.protocols[64].routing_table_snapshot()
        return world

    world, outcome = both_transports(scenario)
    # Bucket order at the moment of the reply — not insertion order (66, 67,
    # 1: what the id index would give) and not the order of the later read.
    assert outcome["nodes"][64]["cache"] == [67, 66, 1]
    assert world.snapshot == [67, 66, 1]
    assert bucket_order(world.protocols[64].routing_table, 66) == [66, 67]


@pytest.mark.parametrize("hooked", ["handle_request", "note_contact", "both"])
@pytest.mark.parametrize(
    "responder_class", [KademliaProtocol, MaliciousKademliaProtocol, SupplementalLinksProtocol]
)
def test_a_subclass_responder_keeps_its_envelope(responder_class, hooked):
    """An override of ``handle_request`` or of ``note_contact`` hears of every hop."""
    heard = []

    def handle_request(self, sender_id, request):
        heard.append(("handle_request", sender_id, type(request).__name__))
        return super(listening, self).handle_request(sender_id, request)

    def note_contact(self, node_id, time=None):
        heard.append(("note_contact", node_id))
        return super(listening, self).note_contact(node_id, time)

    hooks = {"handle_request": handle_request, "note_contact": note_contact}
    listening = type(
        "Listening",
        (responder_class,),
        hooks if hooked == "both" else {hooked: hooks[hooked]},
    )

    def scenario(transport_class):
        del heard[:]
        world = HopWorld(transport_class, loss=0.0)
        world.add(1, contacts=[64])
        world.add(64, protocol_class=listening)
        world.lookup(1)
        world.outcome["heard"] = list(heard)
        return world

    _, outcome = both_transports(scenario)
    expected = [("handle_request", 1, "FindNodeRequest"), ("note_contact", 1)]
    assert outcome["heard"] == [
        event for event in expected if hooked in (event[0], "both")
    ]
    assert counters(outcome) == (1, 0, 0, 0, 1)
