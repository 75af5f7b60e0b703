"""A single k-bucket.

Contacts are kept in least-recently-seen order (head = oldest), the order
the original Kademlia paper prescribes.  A full bucket prefers its existing
contacts: a new contact is only admitted if the bucket has room.  Room is
made when the owning node's communication with a contact keeps failing:
:meth:`KBucket.record_failure` removes the contact the moment its streak
reaches the staleness limit — which is exactly the mechanism behind the
paper's observation that churn and message loss "free up entries in the
k-buckets" and thereby *increase* connectivity.

Because eviction happens at the limit, a bucket driven through
``record_failure`` (as every bucket of a
:class:`~repro.kademlia.routing_table.RoutingTable` is) never *holds* a
stale contact, and step 3 of :meth:`KBucket.add` — replace a stale member
of a full bucket — cannot fire there; the table's ``add_contact`` skips it.
The step is kept for stand-alone buckets whose owner marks a contact stale
without removing it (by writing its ``consecutive_failures`` directly).

A bucket optionally maintains an external flat ``id -> Contact`` index
shared by every bucket of one routing table (see
:class:`~repro.kademlia.routing_table.RoutingTable`): membership mutations
mirror into it so the table can resolve any contact with a single dict
probe instead of bucket-index arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.kademlia.contact import Contact


class KBucket:
    """Bounded, least-recently-seen-ordered set of contacts."""

    __slots__ = ("index", "capacity", "_contacts", "_table_index")

    def __init__(
        self,
        index: int,
        capacity: int,
        table_index: Optional[Dict[int, Contact]] = None,
    ) -> None:
        self.index = index
        self.capacity = capacity
        self._contacts: Dict[int, Contact] = {}
        # Stand-alone buckets (tests, direct use) mirror into a private
        # dict; table-owned buckets share the table's flat index.
        self._table_index: Dict[int, Contact] = (
            table_index if table_index is not None else {}
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._contacts

    @property
    def is_full(self) -> bool:
        """True if the bucket holds ``capacity`` contacts."""
        return len(self._contacts) >= self.capacity

    def contact_ids(self) -> List[int]:
        """Return contact ids in least-recently-seen order."""
        return list(self._contacts)

    def contacts(self) -> List[Contact]:
        """Return contact records in least-recently-seen order."""
        return list(self._contacts.values())

    def get(self, node_id: int) -> Optional[Contact]:
        """Return the contact record for ``node_id`` (None if absent)."""
        return self._contacts.get(node_id)

    def oldest(self) -> Optional[Contact]:
        """Return the least-recently-seen contact (None if empty)."""
        if not self._contacts:
            return None
        return next(iter(self._contacts.values()))

    # ------------------------------------------------------------------
    def touch(self, node_id: int, time: float) -> None:
        """Move ``node_id`` to the most-recently-seen position."""
        contacts = self._contacts
        contact = contacts.pop(node_id)
        contact.last_seen = time
        contact.consecutive_failures = 0
        contacts[node_id] = contact

    def add(self, node_id: int, time: float, staleness_limit: int) -> bool:
        """Try to insert ``node_id``; returns True if it is now in the bucket.

        Insertion policy:

        1. already present → refresh its position and success state;
        2. bucket has room → append as most-recently-seen;
        3. bucket full but some contact is already stale → evict the stale
           contact (preferring the least recently seen one) and insert —
           stand-alone buckets only, see the module docstring;
        4. bucket full of non-stale contacts → reject the new contact.
        """
        contacts = self._contacts
        contact = contacts.pop(node_id, None)
        if contact is not None:
            contact.last_seen = time
            contact.consecutive_failures = 0
            contacts[node_id] = contact
            return True
        if len(contacts) >= self.capacity:
            stale_id = self._first_stale(staleness_limit)
            if stale_id is None:
                return False
            del contacts[stale_id]
            del self._table_index[stale_id]
        contact = Contact(
            node_id=node_id,
            last_seen=time,
            added_at=time,
            bucket_contacts=contacts,
        )
        contacts[node_id] = contact
        self._table_index[node_id] = contact
        return True

    def remove(self, node_id: int) -> bool:
        """Remove ``node_id`` from the bucket; True if it was present."""
        if node_id in self._contacts:
            del self._contacts[node_id]
            del self._table_index[node_id]
            return True
        return False

    def record_failure(self, node_id: int, staleness_limit: int) -> bool:
        """Record a failed round-trip with ``node_id``.

        Returns True if the contact crossed the staleness limit and was
        removed from the bucket.
        """
        contact = self._contacts.get(node_id)
        if contact is None:
            return False
        contact.consecutive_failures += 1
        if contact.consecutive_failures >= staleness_limit:
            del self._contacts[node_id]
            del self._table_index[node_id]
            return True
        return False

    def record_success(self, node_id: int, time: float) -> bool:
        """Record a successful round-trip with ``node_id`` (if present)."""
        if node_id not in self._contacts:
            return False
        self.touch(node_id, time)
        return True

    # ------------------------------------------------------------------
    def _first_stale(self, staleness_limit: int) -> Optional[int]:
        """Return the id of the least-recently-seen stale contact, if any."""
        for node_id, contact in self._contacts.items():
            if contact.consecutive_failures >= staleness_limit:
                return node_id
        return None
