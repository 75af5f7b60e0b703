"""Supplemental links — a connectivity knob independent of the bucket size.

The minimum connectivity of a plain Kademlia network is tied to ``k``
because a node's in-degree is limited by how many *other* nodes have a free
bucket slot for it; once the relevant buckets are full, latecomers are shut
out (paper Sections 5.5 and 6).  :class:`SupplementalLinksProtocol` keeps
up to ``extra_links`` of the contacts that the normal bucket policy
*rejected* in a bounded, least-recently-refreshed overflow list.  Those
supplemental links are real routing-table entries for every purpose that
matters to the paper's measurements: they are returned by FIND_NODE, they
appear in routing-table snapshots (and therefore in the connectivity
graph), and they are subject to the same staleness eviction as bucket
contacts.

``extra_links`` is therefore a direct connectivity control parameter that
leaves the Kademlia bucket structure — and with it the lookup complexity —
untouched, which is exactly the knob the paper's conclusion calls for.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional

from repro.kademlia.config import KademliaConfig
from repro.kademlia.node_id import sort_by_distance
from repro.kademlia.protocol import KademliaProtocol


class SupplementalLinksProtocol(KademliaProtocol):
    """Kademlia protocol with a bounded overflow list of rejected contacts."""

    protocol_name = KademliaProtocol.protocol_name

    def __init__(
        self, node_id: int, config: KademliaConfig, extra_links: int = 8
    ) -> None:
        if extra_links < 0:
            raise ValueError(f"extra_links must be non-negative, got {extra_links}")
        super().__init__(node_id, config)
        self.extra_links = extra_links
        #: contact id -> last time the contact was seen or refreshed.
        self._supplemental: Dict[int, float] = {}
        #: contact id -> consecutive failures observed via the overflow list.
        self._supplemental_failures: Dict[int, int] = {}
        #: bumped on every overflow-list mutation; part of the snapshot
        #: version stamp so the incremental graph maintainer rebuilds this
        #: node's row when supplemental membership changes.
        self._supplemental_version = 0

    # ------------------------------------------------------------------
    # Overflow bookkeeping
    # ------------------------------------------------------------------
    def supplemental_ids(self) -> List[int]:
        """Return the current supplemental contact ids (oldest first)."""
        return list(self._supplemental)

    def note_contact(self, node_id: int, time=None) -> bool:
        """Insert ``node_id`` into the table, falling back to the overflow list.

        The bucket policy runs first (it is authoritative); only contacts it
        rejects — typically because their bucket is full of live contacts —
        are considered for the supplemental list.
        """
        if node_id == self.node_id:
            return False
        accepted = super().note_contact(node_id, time)
        if accepted:
            # A contact promoted into a bucket must not be double-counted.
            if self._supplemental.pop(node_id, None) is not None:
                self._supplemental_failures.pop(node_id, None)
                self._supplemental_version += 1
            return True
        if self.extra_links == 0:
            return False
        self._remember_supplemental(node_id)
        return True

    def _remember_supplemental(self, node_id: int) -> None:
        if node_id in self._supplemental:
            del self._supplemental[node_id]
        elif len(self._supplemental) >= self.extra_links:
            oldest = next(iter(self._supplemental))
            del self._supplemental[oldest]
            self._supplemental_failures.pop(oldest, None)
        self._supplemental[node_id] = self.now
        self._supplemental_failures[node_id] = 0
        self._supplemental_version += 1

    def record_supplemental_failure(self, node_id: int) -> bool:
        """Record a failed round-trip with a supplemental contact.

        Returns True when the contact crossed the staleness limit and was
        dropped from the overflow list.
        """
        if node_id not in self._supplemental:
            return False
        failures = self._supplemental_failures.get(node_id, 0) + 1
        self._supplemental_failures[node_id] = failures
        if failures >= self.config.staleness_limit:
            del self._supplemental[node_id]
            del self._supplemental_failures[node_id]
            self._supplemental_version += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Protocol overrides
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Empty the overflow list along with the table and the store."""
        super().close()
        self._supplemental.clear()
        self._supplemental_failures.clear()
        self._supplemental_version += 1

    def rpc(self, target_id: int, request):
        """Round-trip bookkeeping for bucket *and* supplemental contacts."""
        ok, response = super().rpc(target_id, request)
        if ok:
            if target_id in self._supplemental:
                self._supplemental[target_id] = self.now
                self._supplemental_failures[target_id] = 0
        else:
            self.record_supplemental_failure(target_id)
        return ok, response

    def closest_known(self, target_id: int, count: Optional[int] = None) -> List[int]:
        """Return the closest contacts drawn from buckets and overflow list."""
        count = self.config.bucket_size if count is None else count
        pool = set(self.routing_table.contact_ids())
        pool.update(self._supplemental)
        pool.discard(self.node_id)
        return sort_by_distance(pool, target_id)[:count]

    def handle_request(self, sender_id: int, request):
        """Serve requests with the union of bucket and supplemental contacts."""
        response = super().handle_request(sender_id, request)
        if getattr(response, "contacts", None) is not None and self._supplemental:
            target = getattr(request, "target_id", getattr(request, "key_id", sender_id))
            merged = self.closest_known(target, self.config.bucket_size)
            response = dataclasses.replace(response, contacts=tuple(merged))
        return response

    def routing_table_snapshot(self) -> List[int]:
        """Snapshot = bucket contacts plus the supplemental links."""
        contacts = super().routing_table_snapshot()
        merged = dict.fromkeys(contacts)
        merged.update(dict.fromkeys(self._supplemental))
        return list(merged)

    def snapshot_version(self):
        """Extend the stamp with the overflow list (it is part of snapshots)."""
        return (self.routing_table.membership_version, self._supplemental_version)


class SupplementalPrunePolicy:
    """Periodic maintenance for the overflow list.

    Each application pings the least-recently-refreshed supplemental
    contact; a successful ping refreshes it, a failed ping counts towards
    the staleness limit exactly like bucket contacts.  Nodes running the
    plain protocol are left untouched, so the policy can be attached
    unconditionally.
    """

    def __init__(self, interval_minutes: float = 10.0, pings_per_round: int = 1) -> None:
        if interval_minutes <= 0:
            raise ValueError(
                f"interval_minutes must be positive, got {interval_minutes}"
            )
        if pings_per_round <= 0:
            raise ValueError(
                f"pings_per_round must be positive, got {pings_per_round}"
            )
        self.interval_minutes = interval_minutes
        self.pings_per_round = pings_per_round
        self.pings_performed = 0

    def apply(self, protocol: KademliaProtocol, rng: random.Random) -> int:
        if not isinstance(protocol, SupplementalLinksProtocol):
            return 0
        candidates = protocol.supplemental_ids()[: self.pings_per_round]
        for node_id in candidates:
            protocol.ping(node_id)
            self.pings_performed += 1
        return len(candidates)
