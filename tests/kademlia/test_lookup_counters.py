"""Lookup table-maintenance counters: a guard that counts instead of timing.

A lookup's speed on the requester side comes from refreshing every
mentioned routing-table member once, after the last round-trip, instead
of once per mention.  A timing assertion would flake on a loaded host;
the number of most-recently-seen moves repeats exactly, so a later edit
that quietly goes back to one move per mention fails here.
"""

import random

from repro.kademlia.config import KademliaConfig
from repro.kademlia.messages import FindNodeResponse
from repro.kademlia.protocol import KademliaProtocol
from repro.obs.summary import format_summary
from repro.simulator.network import Network
from repro.simulator.node import SimNode
from repro.simulator.transport import Transport

COUNTERS = ("mentions", "touches", "add_attempts")


class RecordingTransport(Transport):
    """Logs, per round-trip, who answered and which contacts the reply listed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.heard = []

    def rpc(self, sender_id, target_id, request):
        ok, response = super().rpc(sender_id, target_id, request)
        if ok:
            self.heard.append(target_id)
            if isinstance(response, FindNodeResponse):
                self.heard.extend(response.contacts)
        return ok, response


def lookup_counts(registry):
    return {name: registry.counter(f"kademlia.lookup.{name}") for name in COUNTERS}


def build_network(nodes, k, protocol_class=KademliaProtocol, seed=5):
    rng = random.Random(seed)
    config = KademliaConfig(bit_length=32, bucket_size=k, alpha=3, staleness_limit=1)
    network = Network()
    transport = RecordingTransport(network, rng=random.Random(seed))
    protocols = []
    for node_id in rng.sample(range(1, 2**32), nodes):
        node = SimNode(node_id)
        protocol = protocol_class(node_id, config)
        protocol.bind(transport, lambda: 0.0)
        node.register_protocol(KademliaProtocol.protocol_name, protocol)
        network.add_node(node)
        protocol.join(rng.choice(protocols).node_id if protocols else None)
        protocols.append(protocol)
    return transport, protocols, rng


def test_one_move_per_distinct_contact_not_one_per_mention(obs_enabled):
    transport, protocols, rng = build_network(nodes=30, k=20)
    obs_enabled.clear()
    for _ in range(60):
        requester = rng.choice(protocols)
        before = lookup_counts(obs_enabled)
        del transport.heard[:]
        requester.lookup(rng.randrange(2**32))
        spent = {
            name: count - before[name]
            for name, count in lookup_counts(obs_enabled).items()
        }
        assert spent["mentions"] == len(transport.heard)
        distinct = set(transport.heard) - {requester.node_id}
        assert spent["touches"] <= len(distinct)
        assert spent["add_attempts"] <= len(distinct)
    total = lookup_counts(obs_enabled)
    assert total["touches"] > 0
    # Every reply repeats most of the 29 other nodes: ~k mentions per move.
    assert total["touches"] * 5 < total["mentions"]


def test_the_per_mention_path_does_not_count(obs_enabled):
    class Hooked(KademliaProtocol):
        def note_contact(self, node_id, time=None):
            return super().note_contact(node_id, time)

    _, protocols, rng = build_network(nodes=12, k=4, protocol_class=Hooked)
    protocols[0].lookup(rng.randrange(2**32))
    assert obs_enabled.counter("kademlia.lookups") == 12 + 1  # joins + this one
    assert lookup_counts(obs_enabled) == dict.fromkeys(COUNTERS, 0)
    assert "mentions" not in format_summary(obs_enabled.snapshot())


def test_summary_shows_the_table_counters_when_they_ran(obs_enabled):
    _, protocols, rng = build_network(nodes=12, k=4)
    protocols[0].lookup(rng.randrange(2**32))
    counts = lookup_counts(obs_enabled)
    line = next(
        line
        for line in format_summary(obs_enabled.snapshot()).splitlines()
        if line.startswith("kademlia")
    )
    assert (
        f"table: {counts['mentions']} mentions, {counts['touches']} moves, "
        f"{counts['add_attempts']} add attempts"
    ) in line
