"""Lookup table-maintenance counters: a guard that counts instead of timing.

A lookup's speed on the requester side comes from refreshing every
mentioned routing-table member once, after the last round-trip, instead
of once per mention.  A timing assertion would flake on a loaded host;
the number of most-recently-seen moves repeats exactly, so a later edit
that quietly goes back to one move per mention fails here.

The same goes for the hop itself: on the stock transport a FIND_NODE to a
stock responder is two Python calls beneath the lookup and no message
objects.  The hop counters say which kind each hop was, and a
``sys.setprofile`` count pins what a direct one costs.
"""

import gc
import random
import sys

from repro.extensions.adversarial import MaliciousKademliaProtocol
from repro.kademlia import lookup as lookup_module
from repro.kademlia import protocol as protocol_module
from repro.kademlia.config import KademliaConfig
from repro.kademlia.messages import FindNodeResponse
from repro.kademlia.protocol import KademliaProtocol
from repro.obs.summary import format_summary
from repro.simulator.network import Network
from repro.simulator.node import SimNode
from repro.simulator.transport import Transport

COUNTERS = ("mentions", "touches", "add_attempts")
HOPS = ("direct_hops", "envelope_hops")


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


def lookup_counts(registry, names=COUNTERS):
    return {name: registry.counter(f"kademlia.lookup.{name}") for name in names}


def build_network(
    nodes, k, protocol_class=KademliaProtocol, seed=5, transport_class=RecordingTransport,
    malicious=0,
):
    """``nodes`` joined one by one; the last ``malicious`` of them compromised."""
    rng = random.Random(seed)
    config = KademliaConfig(bit_length=32, bucket_size=k, alpha=3, staleness_limit=1)
    network = Network()
    transport = transport_class(network, rng=random.Random(seed))
    protocols = []
    node_ids = rng.sample(range(1, 2**32), nodes)
    for position, node_id in enumerate(node_ids):
        node = SimNode(node_id)
        if position >= nodes - malicious:
            protocol = MaliciousKademliaProtocol(node_id, config, accomplices=node_ids[:4])
        else:
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


# ----------------------------------------------------------------------
# Which hops skip the envelope, and what one of them costs
# ----------------------------------------------------------------------
def hops_per_lookup(registry, transport, protocols, rng, lookups=40):
    """Yield, lookup by lookup, (direct hops, envelope hops, requests sent)."""
    for _ in range(lookups):
        before = lookup_counts(registry, HOPS)
        sent = transport.stats.requests_sent
        rng.choice(protocols).lookup(rng.randrange(2**32))
        after = lookup_counts(registry, HOPS)
        yield (
            after["direct_hops"] - before["direct_hops"],
            after["envelope_hops"] - before["envelope_hops"],
            transport.stats.requests_sent - sent,
        )


def test_every_hop_of_a_stock_network_is_direct(obs_enabled):
    transport, protocols, rng = build_network(nodes=30, k=8, transport_class=Transport)
    total = 0
    for direct, envelope, sent in hops_per_lookup(obs_enabled, transport, protocols, rng):
        assert envelope == 0
        assert direct == sent > 0
        total += direct
    assert total > 200


def test_an_overridden_rpc_hears_every_hop(obs_enabled):
    transport, protocols, rng = build_network(nodes=30, k=8)
    for direct, envelope, sent in hops_per_lookup(obs_enabled, transport, protocols, rng):
        assert direct == 0
        assert envelope == sent > 0
    assert transport.heard


def test_hops_to_a_malicious_responder_keep_their_envelope(obs_enabled):
    transport, protocols, rng = build_network(
        nodes=30, k=8, transport_class=Transport, malicious=3
    )
    honest, compromised = protocols[:-3], protocols[-3:]
    poisoned = sum(p.poisoned_responses for p in compromised)
    enveloped = 0
    for direct, envelope, sent in hops_per_lookup(obs_enabled, transport, honest, rng):
        answered = sum(p.poisoned_responses for p in compromised)
        # No loss and nobody dead: every hop to a compromised node poisons.
        assert envelope == answered - poisoned
        assert direct == sent - envelope
        poisoned = answered
        enveloped += envelope
    assert enveloped > 10


def test_the_per_mention_path_counts_no_hops(obs_enabled):
    class Hooked(KademliaProtocol):
        def note_contact(self, node_id, time=None):
            return super().note_contact(node_id, time)

    _, protocols, rng = build_network(
        nodes=12, k=4, protocol_class=Hooked, transport_class=Transport
    )
    protocols[0].lookup(rng.randrange(2**32))
    assert lookup_counts(obs_enabled, HOPS) == dict.fromkeys(HOPS, 0)
    assert "hops:" not in format_summary(obs_enabled.snapshot())


def test_summary_shows_the_hop_counters_when_they_ran(obs_enabled):
    _, protocols, rng = build_network(nodes=12, k=4, transport_class=Transport)
    protocols[0].lookup(rng.randrange(2**32))
    hops = lookup_counts(obs_enabled, HOPS)
    assert hops["direct_hops"] > 0
    assert (
        f"hops: {hops['direct_hops']} direct, {hops['envelope_hops']} in envelopes"
    ) in format_summary(obs_enabled.snapshot())


def calls_beneath_the_lookup(transport_class, seeds, monkeypatch):
    """One lookup from node 1 to ``seeds`` that all know it: (Python calls, responses built).

    Counts the ``call`` events of ``sys.setprofile`` — Python-level
    functions only, C functions report ``c_call`` — whose stack passes
    through ``_find_node_deferred``, with the garbage collector off.
    """
    config = KademliaConfig(bit_length=16, bucket_size=8, alpha=3, staleness_limit=1)
    network = Network()
    transport = transport_class(network, rng=random.Random(1))
    protocols = {}
    for node_id in [1, *seeds]:
        node = SimNode(node_id)
        protocol = protocols[node_id] = KademliaProtocol(node_id, config)
        protocol.bind(transport, lambda: 0.0)
        node.register_protocol(KademliaProtocol.protocol_name, protocol)
        network.add_node(node)
    for seed in seeds:
        protocols[1].routing_table.add_contact(seed, 0.0)
        protocols[seed].routing_table.add_contact(1, 0.0)
        protocols[seed].routing_table_snapshot()  # its contact cache is warm

    built = []

    def counting_response(**fields):
        built.append(fields)
        return FindNodeResponse(**fields)

    monkeypatch.setattr(protocol_module, "FindNodeResponse", counting_response)
    lookup_code = lookup_module._find_node_deferred.__code__
    calls = []

    def profiler(frame, event, arg):
        if event != "call":
            return
        caller = frame.f_back
        while caller is not None:
            if caller.f_code is lookup_code:
                calls.append(frame.f_code.co_name)
                return
            caller = caller.f_back

    # A garbage-collection pass inside the lookup would run finalizers of
    # whatever earlier code left in reference cycles, and count their
    # calls too; collect first and hold the collector off meanwhile.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = protocols[1].lookup(1)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    assert sorted(result.contacted) == sorted(seeds) and result.rounds == 1
    return calls, len(built)


def test_a_direct_hop_is_two_calls_and_no_response_object(monkeypatch):
    # Same lookup with one seed and with two, both asked in the one round:
    # the difference is exactly one successful hop to a responder that
    # already knows the sender.
    one, built_one = calls_beneath_the_lookup(Transport, [2], monkeypatch)
    two, built_two = calls_beneath_the_lookup(Transport, [2, 3], monkeypatch)
    assert built_one == built_two == 0
    hop = list(two)
    for name in one:
        hop.remove(name)
    assert sorted(hop) == ["add_contact", "find_node_reply"]

    # The instrument sees the envelope when there is one.
    one, built_one = calls_beneath_the_lookup(RecordingTransport, [2], monkeypatch)
    two, built_two = calls_beneath_the_lookup(RecordingTransport, [2, 3], monkeypatch)
    assert (built_one, built_two) == (1, 2)
    assert len(two) - len(one) >= 6
    assert "handle_request" in two and "handle_request" not in hop
