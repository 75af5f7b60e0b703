"""Pastry overlay protocol (leaf sets + routing rows).

Pastry (Rowstron & Druschel, Middleware 2001) treats identifiers as
strings of base-``2^b`` digits and routes by prefix: each hop forwards
to a node sharing at least one more digit with the key.  Each node
maintains

* a **leaf set** of the numerically closest nodes — half above and half
  below the own id on the ring (the resilience backbone and the final
  routing hop), and
* a **routing table** of rows: the entry at ``(row, col)`` is some node
  sharing exactly ``row`` leading digits with the own id and having
  digit ``col`` at position ``row`` (the O(log N) prefix accelerator).

Routing-table slots are first-writer-wins (classical Pastry keeps any
qualifying node, often preferring proximity; the simulator has no
topology, so the first learned contact is as good as any and keeps the
state deterministic).  The routing metric is lexicographic: fewer
remaining digits to correct first, then numeric ring distance — ties on
the metric are broken by node id in the shared lookup driver.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.overlay.base import RoutedOverlayProtocol


@dataclass(frozen=True)
class PastryConfig:
    """Parameters of one Pastry node.

    ``leaf_set_size`` is Pastry's redundancy analogue of Kademlia's
    bucket size ``k``: it sizes the leaf set (split evenly above/below
    the own id) and the replica set of lookups and disseminations, so
    parameter sweeps vary it.  ``digit_bits`` is Pastry's ``b`` (digits
    are base ``2^b``); ``bit_length`` must be a multiple of it.
    """

    bit_length: int = 160
    leaf_set_size: int = 20
    digit_bits: int = 4
    alpha: int = 3
    staleness_limit: int = 1
    refresh_interval_minutes: float = 60.0
    bootstrap_reseed: bool = True

    def __post_init__(self) -> None:
        if self.bit_length <= 0:
            raise ValueError("bit_length must be positive")
        if self.leaf_set_size <= 0:
            raise ValueError("leaf_set_size must be positive")
        if self.digit_bits <= 0:
            raise ValueError("digit_bits must be positive")
        if self.bit_length % self.digit_bits != 0:
            raise ValueError("bit_length must be a multiple of digit_bits")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.staleness_limit <= 0:
            raise ValueError("staleness_limit must be positive")
        if self.refresh_interval_minutes <= 0:
            raise ValueError("refresh_interval_minutes must be positive")

    @property
    def id_space_size(self) -> int:
        """Number of identifiers in the ring (``2^bit_length``)."""
        return 1 << self.bit_length

    @property
    def row_count(self) -> int:
        """Number of digit positions (routing-table rows)."""
        return self.bit_length // self.digit_bits


class PastryProtocol(RoutedOverlayProtocol):
    """Pastry state machine for one node."""

    protocol_name = "pastry"

    def __init__(self, node_id: int, config: PastryConfig) -> None:
        super().__init__(node_id, config)
        half = max(1, config.leaf_set_size // 2)
        self._leaf_half = half
        #: Leaf-set halves as ``(ring_distance, id)``, sorted: the
        #: ``half`` members nearest clockwise resp. counter-clockwise.
        self._leaf_right: List[Tuple[int, int]] = []
        self._leaf_left: List[Tuple[int, int]] = []
        #: Routing rows: ``(row, col) -> id``, first-writer-wins.
        self._rows: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _shared_digits(self, a: int, b: int) -> int:
        """Number of leading base-``2^b`` digits ``a`` and ``b`` share."""
        xor = a ^ b
        if xor == 0:
            return self.config.row_count
        return (self.config.bit_length - xor.bit_length()) // self.config.digit_bits

    def _digit(self, node_id: int, row: int) -> int:
        """The base-``2^b`` digit of ``node_id`` at position ``row``."""
        config = self.config
        shift = config.bit_length - (row + 1) * config.digit_bits
        return (node_id >> shift) & ((1 << config.digit_bits) - 1)

    def _ring_distance(self, a: int, b: int) -> int:
        size = self.config.id_space_size
        clockwise = (b - a) % size
        return min(clockwise, size - clockwise)

    def route_distance(self, node_id: int, target_id: int) -> Tuple[int, int]:
        """Digits still to correct, then numeric ring distance.

        The first component makes greedy routing reproduce Pastry's
        prefix hops (each hop strictly extends the shared prefix when it
        can); the second reproduces the final leaf-set hop.  The shared
        lookup driver breaks metric ties by node id.
        """
        return (
            self.config.row_count - self._shared_digits(node_id, target_id),
            self._ring_distance(node_id, target_id),
        )

    # ------------------------------------------------------------------
    # Routing state
    # ------------------------------------------------------------------
    @property
    def replication(self) -> int:
        return self.config.leaf_set_size

    def _known_contacts(self) -> List[int]:
        """All distinct known contacts (leaf sets + rows), deterministic order."""
        seen = []
        seen_set = set()
        for _, node_id in self._leaf_right:
            if node_id not in seen_set:
                seen_set.add(node_id)
                seen.append(node_id)
        for _, node_id in self._leaf_left:
            if node_id not in seen_set:
                seen_set.add(node_id)
                seen.append(node_id)
        for key in sorted(self._rows):
            node_id = self._rows[key]
            if node_id not in seen_set:
                seen_set.add(node_id)
                seen.append(node_id)
        return seen

    def route_contacts(self, target_id: int) -> List[int]:
        members = self._known_contacts()
        members.sort(
            key=lambda node_id: (self.route_distance(node_id, target_id), node_id)
        )
        return members[: self.replication]

    def _learn_half(
        self, half: List[Tuple[int, int]], distance: int, node_id: int
    ) -> bool:
        entry = (distance, node_id)
        index = bisect_left(half, entry)
        if index < len(half) and half[index] == entry:
            return False
        if len(half) >= self._leaf_half and entry >= half[-1]:
            return False
        half.insert(index, entry)
        if len(half) > self._leaf_half:
            half.pop()
        return True

    def _learn_contact(self, node_id: int) -> bool:
        size = self.config.id_space_size
        clockwise = (node_id - self.node_id) % size
        changed = self._learn_half(self._leaf_right, clockwise, node_id)
        changed = (
            self._learn_half(self._leaf_left, size - clockwise, node_id) or changed
        )
        row = self._shared_digits(self.node_id, node_id)
        if row < self.config.row_count:
            key = (row, self._digit(node_id, row))
            if key not in self._rows:
                self._rows[key] = node_id
                changed = True
        return changed

    def _forget_half(self, half: List[Tuple[int, int]], node_id: int) -> bool:
        for index, (_, member) in enumerate(half):
            if member == node_id:
                del half[index]
                return True
        return False

    def _forget_contact(self, node_id: int) -> bool:
        changed = self._forget_half(self._leaf_right, node_id)
        changed = self._forget_half(self._leaf_left, node_id) or changed
        row = self._shared_digits(self.node_id, node_id)
        if row < self.config.row_count:
            key = (row, self._digit(node_id, row))
            if self._rows.get(key) == node_id:
                del self._rows[key]
                changed = True
        return changed

    def close(self) -> None:
        """The node left for good: also empty the leaf sets and rows."""
        super().close()
        self._leaf_right.clear()
        self._leaf_left.clear()
        self._rows.clear()

    # ------------------------------------------------------------------
    # Seam
    # ------------------------------------------------------------------
    def routing_table_snapshot(self) -> List[int]:
        """Leaf set (clockwise, then counter-clockwise) followed by the rows."""
        return self._known_contacts()

    def _refresh_targets(self, rng: random.Random) -> List[int]:
        """One maintenance cycle: repair one random routing-table slot.

        Looks up the own id with one digit position rewritten to a random
        value — the lookup's responses populate exactly the row/column
        region that slot covers (Pastry's periodic routing-table
        maintenance).  The leaf set heals as a side effect of every
        lookup's learn-from-responses loop.  Exactly two RNG draws per
        cycle keep the shared refresh stream deterministic.
        """
        config = self.config
        row = rng.randrange(config.row_count)
        digit = rng.randrange(1 << config.digit_bits)
        shift = config.bit_length - (row + 1) * config.digit_bits
        mask = ((1 << config.digit_bits) - 1) << shift
        target = (self.node_id & ~mask) | (digit << shift)
        return [target]
