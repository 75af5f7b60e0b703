"""Chord overlay protocol (successor lists + finger tables).

Chord (Stoica et al., SIGCOMM 2001) arranges node identifiers on a ring
of size ``2^m`` and routes a key to its *successor* — the first node at
or after the key clockwise.  Each node maintains

* a **successor list** of the ``r`` nodes immediately after it (the
  resilience backbone: the ring stays connected while any successor
  survives),
* a **finger table** whose ``i``-th entry is the first node at clockwise
  distance ``>= 2^i`` (the O(log N) routing accelerator), and
* its **predecessor**.

This implementation keeps one sorted ring of known members (by
clockwise distance from the own id) and derives all three roles from it:
a member is retained iff it is one of the first ``successor_count``
members, holds some finger slot, or is the last member (the
predecessor).  Whether a member at distance ``b`` whose ring predecessor
sits at distance ``a`` holds a finger slot is exactly "is there a power
of two in ``(a, b]``" — an O(1) bit trick — so pruning after an insert
is a single linear scan over the (logarithmically sized) ring.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Tuple

from repro.overlay.base import RoutedOverlayProtocol


@dataclass(frozen=True)
class ChordConfig:
    """Parameters of one Chord node.

    ``successor_count`` is Chord's redundancy analogue of Kademlia's
    bucket size ``k``: it sizes the successor list and the replica set of
    lookups and disseminations, so parameter sweeps vary it.
    """

    bit_length: int = 160
    successor_count: int = 20
    alpha: int = 3
    staleness_limit: int = 1
    refresh_interval_minutes: float = 60.0
    bootstrap_reseed: bool = True

    def __post_init__(self) -> None:
        if self.bit_length <= 0:
            raise ValueError("bit_length must be positive")
        if self.successor_count <= 0:
            raise ValueError("successor_count must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.staleness_limit <= 0:
            raise ValueError("staleness_limit must be positive")
        if self.refresh_interval_minutes <= 0:
            raise ValueError("refresh_interval_minutes must be positive")

    @property
    def id_space_size(self) -> int:
        """Number of identifiers in the ring (``2^m``)."""
        return 1 << self.bit_length


def _power_of_two_in(after: int, upto: int) -> bool:
    """True iff some power of two lies in the half-open range ``(after, upto]``.

    The smallest power of two strictly greater than ``after`` is
    ``1 << after.bit_length()`` (for ``after >= 0``), so the test is one
    comparison.
    """
    return (1 << after.bit_length()) <= upto


class ChordProtocol(RoutedOverlayProtocol):
    """Chord state machine for one node."""

    protocol_name = "chord"

    def __init__(self, node_id: int, config: ChordConfig) -> None:
        super().__init__(node_id, config)
        #: Known ring members as ``(clockwise_distance, id)``, sorted —
        #: i.e. successor order starting right after the own id.
        self._ring: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _cw(self, from_id: int, to_id: int) -> int:
        """Clockwise ring distance from ``from_id`` to ``to_id``."""
        return (to_id - from_id) % self.config.id_space_size

    def route_distance(self, node_id: int, target_id: int) -> int:
        """Clockwise distance from the node forward to the target.

        Minimising this is the iterative form of Chord's
        *closest-preceding-node* routing: every hop's finger table at
        least halves the remaining forward distance, because fingers sit
        at all power-of-two distances.  The dual (minimising the distance
        from the target to the node, i.e. approaching the successor
        directly) does not converge iteratively — nodes past the target
        only know contacts even further clockwise — so here a key is
        resolved to its closest *preceding* node, the mirror image of
        ``find_successor`` under ring reversal, and dissemination places
        replicas on the key's closest preceding nodes (whose successor
        lists are exactly the classical replica set's vantage points).
        Injective over distinct ids, so greedy routing never ties.
        """
        return self._cw(node_id, target_id)

    # ------------------------------------------------------------------
    # Routing state
    # ------------------------------------------------------------------
    @property
    def replication(self) -> int:
        return self.config.successor_count

    def route_contacts(self, target_id: int) -> List[int]:
        members = [node_id for _, node_id in self._ring]
        members.sort(key=lambda node_id: self._cw(node_id, target_id))
        return members[: self.replication]

    def _learn_contact(self, node_id: int) -> bool:
        entry = (self._cw(self.node_id, node_id), node_id)
        ring = self._ring
        index = bisect_left(ring, entry)
        if index < len(ring) and ring[index] == entry:
            return False
        ring.insert(index, entry)
        removed = self._prune()
        if removed and not self._contains(node_id):
            # The newcomer held no role and was dropped right away; a
            # roleless newcomer displaces nobody, so membership is as it
            # was (and ``removed`` is necessarily 1).
            return False
        return True

    def _contains(self, node_id: int) -> bool:
        entry = (self._cw(self.node_id, node_id), node_id)
        index = bisect_left(self._ring, entry)
        return index < len(self._ring) and self._ring[index] == entry

    def _forget_contact(self, node_id: int) -> bool:
        entry = (self._cw(self.node_id, node_id), node_id)
        ring = self._ring
        index = bisect_left(ring, entry)
        if index < len(ring) and ring[index] == entry:
            # Removal never strips roles from the remaining members (the
            # vacated gap only *adds* finger powers to the next member),
            # so no re-prune is needed.
            del ring[index]
            return True
        return False

    def close(self) -> None:
        """The node left for good: also empty the ring."""
        super().close()
        self._ring.clear()

    def _prune(self) -> int:
        """Drop members holding no role; returns how many were dropped.

        One linear scan: a member is kept when it is within the successor
        list, is the predecessor (the last member), or holds a finger slot
        — the latter iff a power of two lies in the clockwise gap between
        its ring predecessor and itself.  Checking the gap against the
        *unpruned* neighbour is self-consistent: a pruned member's gap
        contains no power of two, so the powers it would shadow pass
        through to the next kept member unchanged.
        """
        ring = self._ring
        keep_count = self.config.successor_count
        if len(ring) <= keep_count:
            return 0
        kept: List[Tuple[int, int]] = ring[:keep_count]
        previous_distance = ring[keep_count - 1][0]
        last_index = len(ring) - 1
        removed = 0
        for index in range(keep_count, len(ring)):
            entry = ring[index]
            if index == last_index or _power_of_two_in(previous_distance, entry[0]):
                kept.append(entry)
            else:
                removed += 1
            previous_distance = entry[0]
        if removed:
            self._ring = kept
        return removed

    # ------------------------------------------------------------------
    # Seam
    # ------------------------------------------------------------------
    def routing_table_snapshot(self) -> List[int]:
        """All known members in successor (clockwise) order."""
        return [node_id for _, node_id in self._ring]

    def _refresh_targets(self, rng: random.Random) -> List[int]:
        """One stabilisation cycle: own successor plus one random finger.

        Looking up ``own_id + 1`` re-finds the immediate successor (and,
        via the lookup's learn-from-responses loop, refills the successor
        list); looking up ``own_id + 2^i`` for one uniformly random ``i``
        repairs a finger — over cycles all fingers get revisited, matching
        Chord's ``fix_fingers``.  Exactly one RNG draw per cycle keeps the
        shared refresh stream deterministic.
        """
        size = self.config.id_space_size
        finger_bit = rng.randrange(self.config.bit_length)
        return [
            (self.node_id + 1) % size,
            (self.node_id + (1 << finger_bit)) % size,
        ]
