"""The Kademlia routing table: ``b`` k-buckets indexed by XOR distance."""

from __future__ import annotations

import random
from functools import partial
from operator import xor
from typing import Container, Dict, Iterable, List, Optional

from repro.kademlia.config import KademliaConfig
from repro.kademlia.contact import Contact
from repro.kademlia.kbucket import KBucket
from repro.kademlia.node_id import random_id_in_bucket


class RoutingTable:
    """Per-node routing state.

    The table owns ``bit_length`` buckets; bucket ``i`` covers contacts at
    XOR distance ``[2**i, 2**(i+1))`` from the owner, so the highest-index
    bucket covers half the identifier space, the next one a quarter, and so
    on (paper Section 4.1).

    This class is the hottest part of the whole simulation — a lookup
    offers every contact it learns to :meth:`add_contact` and refreshes
    every member it heard of through :meth:`refresh_contacts`, and every
    FIND_NODE a node answers runs :meth:`find_node_reply` — so it keeps two
    auxiliary structures in sync with the buckets:

    * ``_contact_index`` — a flat ``id -> Contact`` dict over all buckets.
      The common case (refreshing an already-known contact) resolves with
      one dict probe; the contact's back-reference to its bucket dict makes
      the most-recently-seen move two more dict operations.  Bucket
      membership mutations mirror into the index (:class:`KBucket` shares
      it), so it is always exact.
    * ``_contacts_cache`` — the flat contact-id list in canonical bucket
      order, rebuilt only when *membership* changes (reordering inside a
      bucket does not invalidate it).  Snapshots read it directly.

    ``membership_version`` increments on every membership change (insert or
    eviction).  The incremental connectivity-graph maintainer uses it to
    skip rebuilding snapshot-graph rows for tables that did not change
    between snapshots.

    Bucket policy as it actually runs: a contact leaves the table the moment
    its failure streak reaches ``staleness_limit`` (:meth:`record_failure`;
    the limit is validated ``>= 1``), so no member is ever stale and a full
    bucket never admits a newcomer — a slot opens only through an eviction.
    :meth:`KBucket.add`'s "replace a stale member" step is therefore
    unreachable from here and :meth:`add_contact` does not scan for one.
    """

    __slots__ = (
        "owner_id",
        "config",
        "_buckets",
        "_contact_index",
        "_contacts_cache",
        "_bucket_size",
        "_staleness_limit",
        "membership_version",
    )

    def __init__(self, owner_id: int, config: KademliaConfig) -> None:
        self.owner_id = owner_id
        self.config = config
        self._buckets: Dict[int, KBucket] = {}
        self._contact_index: Dict[int, Contact] = {}
        self._contacts_cache: Optional[List[int]] = None
        # Config lookups are frozen-dataclass attribute chains; cache the two
        # values the per-contact fast paths need.
        self._bucket_size = config.bucket_size
        self._staleness_limit = config.staleness_limit
        self.membership_version = 0

    # ------------------------------------------------------------------
    def bucket_for(self, node_id: int) -> KBucket:
        """Return (creating lazily) the bucket that covers ``node_id``."""
        if node_id == self.owner_id:
            raise ValueError("a node has no bucket for its own identifier")
        if node_id < 0:
            raise ValueError("identifiers must be non-negative")
        index = (self.owner_id ^ node_id).bit_length() - 1
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = KBucket(
                index, self._bucket_size, self._contact_index
            )
        return bucket

    def buckets(self) -> List[KBucket]:
        """Return the non-empty (or previously used) buckets, by index."""
        return [self._buckets[index] for index in sorted(self._buckets)]

    # ------------------------------------------------------------------
    def add_contact(self, node_id: int, time: float) -> bool:
        """Try to add ``node_id``; returns True if it is in the table afterwards."""
        if node_id == self.owner_id:
            return False
        contact = self._contact_index.get(node_id)
        if contact is not None:
            # Most common case by far: the contact is already known — move
            # it to the most-recently-seen slot of its bucket and reset its
            # failure streak.  Membership is unchanged, the cache holds.
            bucket_contacts = contact.bucket_contacts
            del bucket_contacts[node_id]
            bucket_contacts[node_id] = contact
            contact.last_seen = time
            contact.consecutive_failures = 0
            return True
        if node_id < 0:
            raise ValueError("identifiers must be non-negative")
        index = (self.owner_id ^ node_id).bit_length() - 1
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = KBucket(
                index, self._bucket_size, self._contact_index
            )
        elif len(bucket._contacts) >= self._bucket_size:
            # Full of members that are all live (see the class docstring):
            # rejected, without KBucket.add's scan for a stale one.
            return False
        bucket.add(node_id, time, self._staleness_limit)
        self._contacts_cache = None
        self.membership_version += 1
        return True

    def refresh_contacts(
        self,
        node_ids: Iterable[int],
        time: float,
        keep_streak: Container[int] = (),
    ) -> int:
        """Refresh every member among ``node_ids``, in order; returns how many.

        Batch form of :meth:`add_contact`'s already-known case: one
        most-recently-seen move per id, so the ids' order becomes their
        order at the tail of each bucket.  Non-members are skipped, never
        inserted.  Ids in ``keep_streak`` are moved and time-stamped but
        keep their failure streak (a round-trip to them failed after they
        were last heard of).
        """
        index_get = self._contact_index.get
        refreshed = 0
        for node_id in node_ids:
            contact = index_get(node_id)
            if contact is None:
                continue
            bucket_contacts = contact.bucket_contacts
            del bucket_contacts[node_id]
            bucket_contacts[node_id] = contact
            contact.last_seen = time
            if node_id not in keep_streak:
                contact.consecutive_failures = 0
            refreshed += 1
        return refreshed

    def remove_contact(self, node_id: int) -> bool:
        """Remove ``node_id`` from the table; True if it was present."""
        contact = self._contact_index.get(node_id)
        if contact is None:
            return False
        del contact.bucket_contacts[node_id]
        del self._contact_index[node_id]
        self._contacts_cache = None
        self.membership_version += 1
        return True

    def clear(self) -> None:
        """Remove every contact: buckets, flat index and contact cache.

        Each bucket's contact dict is emptied in place, not just dropped:
        a member's ``bucket_contacts`` points back at the dict holding it,
        so a dropped bucket would leave that cycle for the garbage
        collector.
        """
        if self._contact_index:
            self.membership_version += 1
        for bucket in self._buckets.values():
            bucket._contacts.clear()
        self._buckets.clear()
        self._contact_index.clear()
        self._contacts_cache = None

    def record_failure(self, node_id: int) -> bool:
        """Record a failed round-trip; True if the contact was dropped as stale."""
        contact = self._contact_index.get(node_id)
        if contact is None:
            return False
        contact.consecutive_failures += 1
        if contact.consecutive_failures >= self._staleness_limit:
            del contact.bucket_contacts[node_id]
            del self._contact_index[node_id]
            self._contacts_cache = None
            self.membership_version += 1
            return True
        return False

    def record_success(self, node_id: int, time: float) -> bool:
        """Record a successful round-trip with an existing contact."""
        return node_id in self._contact_index and self.add_contact(node_id, time)

    # ------------------------------------------------------------------
    def contains(self, node_id: int) -> bool:
        """True if ``node_id`` is currently in the table."""
        return node_id in self._contact_index and node_id != self.owner_id

    def _fill_contacts_cache(self) -> List[int]:
        """Rebuild ``_contacts_cache`` from the buckets and return it (not a copy).

        The one place the cache is filled.  It runs when a reader finds the
        cache ``None`` — the first snapshot or reply after a membership
        change — and freezes the buckets' least-recently-seen order of
        that moment.
        """
        cache: List[int] = []
        buckets = self._buckets
        for index in sorted(buckets):
            cache.extend(buckets[index]._contacts)
        self._contacts_cache = cache
        return cache

    def contact_ids(self) -> List[int]:
        """Return every contact id in the table, in canonical bucket order."""
        cache = self._contacts_cache
        if cache is None:
            cache = self._fill_contacts_cache()
        return list(cache)

    def contact_count(self) -> int:
        """Return the number of contacts currently stored — O(1)."""
        return len(self._contact_index)

    def closest_contacts(self, target_id: int, count: Optional[int] = None) -> List[int]:
        """Return up to ``count`` contact ids closest to ``target_id``.

        ``count`` defaults to the bucket size ``k`` — the reply size of a
        FIND_NODE RPC.  A full sort with a C-level key replaces the previous
        ``heapq.nsmallest`` + Python lambda: tables hold at most a few
        hundred contacts, where one C-keyed sort wins outright, and both
        produce the same ordering (stable smallest-``count`` prefix).  The
        key is ``partial(xor, target_id)`` rather than the bound
        ``target_id.__xor__``: same values, but the method-wrapper's call
        path costs 0.2-0.3 us more per sort of 12-45 160-bit ids.

        The sort reads (and, when membership changed, rebuilds) the flat
        contact-id cache rather than the id index.  The sorted *result* is
        the same either way, but the rebuild moment is observable: the
        cache captures the buckets' least-recently-seen order at build
        time, and snapshots persist that order — rebuilding here, on the
        first reply after a membership change, keeps snapshot rows
        bit-identical to the historical behaviour.
        """
        if count is None:
            count = self._bucket_size
        contacts = self._contacts_cache
        if contacts is None:
            contacts = self._fill_contacts_cache()
        ordered = sorted(contacts, key=partial(xor, target_id))
        return ordered if len(ordered) <= count else ordered[:count]

    def find_node_reply(self, sender_id: int, target_id: int, time: float) -> List[int]:
        """Answer FIND_NODE: note the sender, return the ``k`` closest to ``target_id``.

        The responder's half of a lookup hop as one call — what
        :meth:`add_contact` followed by :meth:`closest_contacts` does, in
        that order: a sender that is admitted appears in its own reply, and
        its admission is a membership change, so the reply is also the
        moment the cache is rebuilt.  This runs once per simulated FIND_NODE
        round-trip, which is why the five lines of the sort are written out
        a second time: a reply to a known sender stays at two Python calls
        (pinned by ``tests/kademlia/test_lookup_counters.py``).
        """
        self.add_contact(sender_id, time)
        contacts = self._contacts_cache
        if contacts is None:
            contacts = self._fill_contacts_cache()
        ordered = sorted(contacts, key=partial(xor, target_id))
        count = self._bucket_size
        return ordered if len(ordered) <= count else ordered[:count]

    # ------------------------------------------------------------------
    def refresh_targets(self, rng: random.Random) -> List[int]:
        """Return the lookup targets of one maintenance bucket refresh.

        One random identifier per refreshed bucket.  With
        ``config.refresh_all_buckets`` every bucket range is refreshed (the
        paper's description); otherwise only buckets that currently hold
        contacts are refreshed, plus one random identifier over the whole
        space so an almost-empty table still explores.
        """
        targets: List[int] = []
        if self.config.refresh_all_buckets:
            indices = range(self.config.bit_length)
        else:
            indices = sorted(self._buckets)
        for index in indices:
            targets.append(
                random_id_in_bucket(
                    self.owner_id, index, self.config.bit_length, rng
                )
            )
        if not self.config.refresh_all_buckets:
            targets.append(rng.randrange(self.config.id_space_size))
        return targets

    def occupancy_by_bucket(self) -> Dict[int, int]:
        """Return ``bucket index -> contact count`` for non-empty buckets."""
        return {
            index: len(bucket)
            for index, bucket in sorted(self._buckets.items())
            if len(bucket) > 0
        }
