"""Routing-table snapshots.

The paper persists the routing tables of all nodes at pre-defined time
stamps and feeds those snapshot files into the graph transformation and
max-flow pipeline (Section 5.2).  :class:`RoutingTableSnapshot` is the
in-memory equivalent; it can be serialised to JSON for offline analysis
through the CLI (``repro-kademlia analyze-snapshot``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

from repro.core.connectivity_graph import build_connectivity_graph
from repro.graph.digraph import DiGraph

PathLike = Union[str, Path]


class _NodeIds(dict):
    """Captured node id -> its key object; any other contact -> ``int(contact)``.

    One dict lookup per decoded contact both converts it and, when it
    names a captured node, replaces it by that node's key.
    """

    def __missing__(self, contact):
        return int(contact)


@dataclass(frozen=True)
class RoutingTableSnapshot:
    """Routing tables of all alive nodes at one simulated time."""

    time: float
    routing_tables: Dict[int, List[int]]
    #: Overlay protocol the tables belong to (see :mod:`repro.overlay`).
    protocol: str = "kademlia"

    # ------------------------------------------------------------------
    @property
    def network_size(self) -> int:
        """Number of alive nodes captured by the snapshot."""
        return len(self.routing_tables)

    def alive_nodes(self) -> List[int]:
        """Return the ids of the captured nodes."""
        return list(self.routing_tables)

    def total_contacts(self) -> int:
        """Total number of routing-table entries across all nodes."""
        return sum(len(contacts) for contacts in self.routing_tables.values())

    def to_connectivity_graph(self) -> DiGraph:
        """Build the connectivity graph of this snapshot (Section 4.2)."""
        return build_connectivity_graph(self.routing_tables)

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        time: float,
        tables: Mapping[int, Sequence[int]],
        protocol: str = "kademlia",
    ) -> "RoutingTableSnapshot":
        """Deep-copy ``tables`` into an immutable snapshot."""
        return cls(
            time=time,
            routing_tables={
                int(node_id): list(contacts) for node_id, contacts in tables.items()
            },
            protocol=protocol,
        )

    # ------------------------------------------------------------------
    def to_document(self) -> Dict:
        """The JSON document of this snapshot, the twin of :meth:`from_document`.

        Equal to ``json.loads(self.to_json())`` without the text in
        between: node ids as string keys, each table a list of its own.
        Kademlia snapshots keep the pre-protocol-dimension encoding (no
        ``protocol`` key): snapshot bytes participate in the pinned
        trajectory digests, which must stay stable on the Kademlia path.
        """
        document = {
            "time": self.time,
            "routing_tables": {
                str(node_id): list(contacts)
                for node_id, contacts in self.routing_tables.items()
            },
        }
        if self.protocol != "kademlia":
            document["protocol"] = self.protocol
        return document

    def to_json(self) -> str:
        """Serialise :meth:`to_document` to a JSON string."""
        return json.dumps(self.to_document())

    @classmethod
    def from_json(cls, text: str) -> "RoutingTableSnapshot":
        """Deserialise from :meth:`to_json` output.

        ``json.loads`` plus :meth:`from_document`, so every contact that
        names a captured node is that node's key object, not a copy.
        """
        return cls.from_document(json.loads(text))

    @classmethod
    def from_document(cls, payload: Mapping) -> "RoutingTableSnapshot":
        """Build a snapshot from the decoded :meth:`to_json` document.

        The one decoder: :meth:`from_json` and the result store
        (:func:`repro.experiments.persistence.result_from_dict`) both end
        here.  JSON decoding makes a new int for every contact; a contact
        that names a captured node is replaced by that node's key, so a
        node id is held once however many tables list it (other contacts
        keep their own int).  Legacy payloads (written before the protocol
        dimension existed) carry no ``protocol`` key and load as Kademlia
        snapshots.
        """
        tables = {
            int(node_id): contacts
            for node_id, contacts in payload["routing_tables"].items()
        }
        node_id_of = _NodeIds(zip(tables, tables)).__getitem__
        for node, contacts in tables.items():
            tables[node] = list(map(node_id_of, contacts))
        return cls(
            time=float(payload["time"]),
            routing_tables=tables,
            protocol=payload.get("protocol", "kademlia"),
        )

    def save(self, path: PathLike) -> None:
        """Write the snapshot to ``path`` as JSON."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "RoutingTableSnapshot":
        """Read a snapshot previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def synthetic_snapshot(
    network_size: int,
    contacts_per_node: int = 16,
    seed: int = 0,
    time: float = 0.0,
) -> RoutingTableSnapshot:
    """Generate a seeded Kademlia-shaped snapshot without a simulation.

    Deployment-scale (10^4+-node) snapshots are too expensive to simulate
    inside CI or a benchmark just to have *input* for the estimation
    pipeline, so this builds one directly: each node's routing table is a
    ring successor (which makes the graph strongly connected, like a
    stabilised overlay) plus XOR-structured long-range contacts — one
    sampled per distance octave, mirroring Kademlia's per-bucket layout —
    filled up with uniform picks when the octaves are exhausted.  Purely
    a function of ``(network_size, contacts_per_node, seed)``.
    """
    if network_size < 2:
        raise ValueError(f"network_size must be >= 2, got {network_size}")
    rng = random.Random(seed)
    bits = max(1, (network_size - 1).bit_length())
    tables: Dict[int, List[int]] = {}
    for node in range(network_size):
        contacts = {(node + 1) % network_size}
        # One contact per XOR-distance octave, nearest octaves first —
        # the bucket structure the estimator's degree strata see in a
        # real Kademlia table.
        for bit in range(bits):
            if len(contacts) >= contacts_per_node:
                break
            low, high = 1 << bit, min(1 << (bit + 1), network_size)
            if low >= high:
                continue
            candidate = (node ^ rng.randrange(low, high)) % network_size
            if candidate != node:
                contacts.add(candidate)
        while len(contacts) < min(contacts_per_node, network_size - 1):
            candidate = rng.randrange(network_size)
            if candidate != node:
                contacts.add(candidate)
        tables[node] = sorted(contacts)
    return RoutingTableSnapshot(time=time, routing_tables=tables)
