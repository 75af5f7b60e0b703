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
"""

import random

import pytest

from repro.extensions.adversarial import MaliciousKademliaProtocol
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


# ----------------------------------------------------------------------
# Seeded churn + loss simulations
# ----------------------------------------------------------------------
BIT_LENGTH = 16


def drive(protocol_class, k, s, loss, seed, sloppy):
    """Run one seeded simulation; yield a checkpoint after every operation.

    Every random decision comes from ``seed`` alone, so two runs that
    differ only in ``protocol_class`` issue the same operations — and,
    while the two lookup paths agree, the same round-trips and therefore
    the same loss draws.
    """
    config = KademliaConfig(
        bit_length=BIT_LENGTH, bucket_size=k, alpha=3, staleness_limit=s
    )
    rng = random.Random(seed)
    network = Network()
    transport = Transport(network, loss_probability=loss, rng=random.Random(seed + 1))
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
        return label, requester.node_id, result, table_state(requester)

    for _ in range(24):
        protocol, result = spawn()
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
            }

    yield "final", None, transport.stats, {
        node_id: table_state(protocol) for node_id, protocol in sorted(protocols.items())
    }


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
