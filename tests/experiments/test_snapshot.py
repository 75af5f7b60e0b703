"""Tests for routing-table snapshots."""

import json
from pathlib import Path

from repro.experiments.snapshot import RoutingTableSnapshot

#: A snapshot file written by the pre-overlay code (before the
#: ``protocol`` dimension existed): tiny scenario A, seed 7, final
#: snapshot.  Committed verbatim — the backward-compat contract is that
#: these exact bytes keep loading forever.
LEGACY_SNAPSHOT = (
    Path(__file__).parent / "data" / "legacy-snapshot-pre-overlay.json"
)


class TestRoutingTableSnapshot:
    def test_capture_copies_tables(self):
        tables = {1: [2, 3], 2: [1]}
        snapshot = RoutingTableSnapshot.capture(5.0, tables)
        tables[1].append(99)
        assert snapshot.routing_tables[1] == [2, 3]
        assert snapshot.network_size == 2
        assert snapshot.total_contacts() == 3
        assert sorted(snapshot.alive_nodes()) == [1, 2]

    def test_json_round_trip(self):
        snapshot = RoutingTableSnapshot.capture(7.5, {10: [20], 20: [10, 30]})
        restored = RoutingTableSnapshot.from_json(snapshot.to_json())
        assert restored.time == 7.5
        assert restored.routing_tables == {10: [20], 20: [10, 30]}

    def test_file_round_trip(self, tmp_path):
        snapshot = RoutingTableSnapshot.capture(1.0, {1: [2], 2: []})
        path = tmp_path / "snap.json"
        snapshot.save(path)
        restored = RoutingTableSnapshot.load(path)
        assert restored.routing_tables == snapshot.routing_tables

    def test_from_json_holds_each_node_id_once(self):
        # Ids above 256, so no two equal ints are one object by accident.
        snapshot = RoutingTableSnapshot.capture(
            0.0, {1000: [2000, 3000], 2000: [1000, 5000], 3000: [2000, 1000]}
        )
        restored = RoutingTableSnapshot.from_json(snapshot.to_json())
        assert restored.routing_tables == snapshot.routing_tables
        keys = {node: node for node in restored.routing_tables}
        for contacts in restored.routing_tables.values():
            for contact in contacts:
                if contact in keys:
                    assert contact is keys[contact]
        # A contact that names no captured node is decoded all the same.
        assert restored.routing_tables[2000][1] == 5000

    def test_from_document_is_from_json_without_the_text(self):
        snapshot = RoutingTableSnapshot.capture(2.5, {1000: [2000], 2000: [1000]}, "chord")
        document = json.loads(snapshot.to_json())
        assert RoutingTableSnapshot.from_document(document) == snapshot
        assert RoutingTableSnapshot.from_json(snapshot.to_json()) == snapshot

    def test_to_document_is_the_decoded_json(self):
        for protocol in ("kademlia", "chord"):
            snapshot = RoutingTableSnapshot.capture(
                3.25, {1000: [2000, 3000], 2000: [1000], 3000: []}, protocol
            )
            document = snapshot.to_document()
            assert document == json.loads(snapshot.to_json())
            assert ("protocol" in document) == (protocol != "kademlia")
            assert RoutingTableSnapshot.from_document(document) == snapshot
            # Each table is a list of the document's own.
            document["routing_tables"]["1000"].append(4000)
            assert snapshot.routing_tables[1000] == [2000, 3000]

    def test_to_connectivity_graph(self):
        snapshot = RoutingTableSnapshot.capture(0.0, {1: [2], 2: [1], 3: [1]})
        graph = snapshot.to_connectivity_graph()
        assert graph.number_of_vertices() == 3
        assert graph.has_edge(3, 1)
        assert not graph.has_edge(1, 3)


class TestProtocolDimension:
    def test_capture_defaults_to_kademlia(self):
        snapshot = RoutingTableSnapshot.capture(0.0, {1: [2]})
        assert snapshot.protocol == "kademlia"

    def test_kademlia_json_encoding_is_legacy_stable(self):
        # Kademlia snapshots must serialise to the exact pre-overlay shape
        # (no "protocol" key): their bytes feed the pinned trajectory
        # digests.
        snapshot = RoutingTableSnapshot.capture(2.0, {1: [2]}, "kademlia")
        payload = json.loads(snapshot.to_json())
        assert set(payload) == {"time", "routing_tables"}

    def test_non_kademlia_json_round_trip(self):
        snapshot = RoutingTableSnapshot.capture(3.0, {1: [2], 2: [1]}, "chord")
        payload = json.loads(snapshot.to_json())
        assert payload["protocol"] == "chord"
        restored = RoutingTableSnapshot.from_json(snapshot.to_json())
        assert restored.protocol == "chord"
        assert restored == snapshot

    def test_non_kademlia_file_round_trip(self, tmp_path):
        snapshot = RoutingTableSnapshot.capture(4.0, {7: [8]}, "pastry")
        path = tmp_path / "snap.json"
        snapshot.save(path)
        assert RoutingTableSnapshot.load(path) == snapshot


class TestLegacyPayloadCompat:
    def test_committed_pre_overlay_snapshot_loads_as_kademlia(self):
        snapshot = RoutingTableSnapshot.load(LEGACY_SNAPSHOT)
        assert snapshot.protocol == "kademlia"
        assert snapshot.time == 24.0
        assert snapshot.network_size == 4
        # The rows survived intact: every contact id is a proper int.
        for node_id, contacts in snapshot.routing_tables.items():
            assert isinstance(node_id, int)
            assert contacts
            assert all(isinstance(c, int) for c in contacts)

    def test_legacy_round_trip_is_byte_identical(self):
        # load -> to_json must reproduce the committed bytes exactly:
        # the kademlia encoding is frozen, so a legacy file re-saved by
        # the new code is indistinguishable from the original.
        original = LEGACY_SNAPSHOT.read_text().strip()
        snapshot = RoutingTableSnapshot.from_json(original)
        assert snapshot.to_json() == original

    def test_from_json_defaults_missing_protocol_to_kademlia(self):
        restored = RoutingTableSnapshot.from_json(
            '{"time": 1.0, "routing_tables": {"1": [2]}}'
        )
        assert restored.protocol == "kademlia"
        assert restored.routing_tables == {1: [2]}
