"""Contact rotation — loss-like reorganisation without message loss.

The paper's central loss finding (Figures 12–14) is that failed round-trips
evict contacts, the freed bucket slots are re-filled by nodes that were
previously shut out, and the minimum connectivity rises well above ``k``.
The obvious downside is that real message loss also hurts lookup latency
and result quality (paper Section 5.8.1).

:class:`ContactRotationPolicy` produces the same bucket turnover
deliberately: every ``interval_minutes`` the policy walks a node's buckets
and, for each *full* bucket, evicts the least-recently-seen contact with
probability ``rotation_fraction`` and immediately looks up a random
identifier in that bucket's range so the freed slot is re-filled from the
current network population.  No message is ever dropped, so lookups keep
their loss-free latency and quality.

``rotation_fraction`` is the connectivity control knob the paper's
conclusion asks for: it tunes how quickly routing tables reorganise,
independently of the bucket size ``k``.
"""

from __future__ import annotations

import random
from typing import Protocol as TypingProtocol

from repro.kademlia.node_id import random_id_in_bucket
from repro.kademlia.protocol import KademliaProtocol


class MaintenancePolicy(TypingProtocol):
    """Periodic per-node maintenance hook run by the simulation.

    Implementations are attached to :class:`OverlaySimulation` via a
    :class:`~repro.extensions.hardening.HardeningConfig`; the simulation
    invokes :meth:`apply` for every alive node once per
    ``interval_minutes``.
    """

    #: Simulated minutes between two applications on the same node.
    interval_minutes: float

    def apply(self, protocol: KademliaProtocol, rng: random.Random) -> int:
        """Run the maintenance step on one node; returns an action count."""
        ...  # pragma: no cover - protocol definition


class ContactRotationPolicy:
    """Rotate the oldest contact out of full buckets at a configurable rate.

    Parameters
    ----------
    rotation_fraction:
        Probability that a full bucket rotates one contact per application.
        ``0.0`` disables rotation, ``1.0`` rotates every full bucket every
        time.
    interval_minutes:
        How often the policy runs per node.
    refill_lookup:
        If True (default), every rotation is followed by a lookup for a
        random identifier in the rotated bucket's range, so the freed slot
        is offered to the current population immediately instead of waiting
        for background traffic.
    """

    def __init__(
        self,
        rotation_fraction: float = 0.25,
        interval_minutes: float = 10.0,
        refill_lookup: bool = True,
    ) -> None:
        if not 0.0 <= rotation_fraction <= 1.0:
            raise ValueError(
                f"rotation_fraction must be in [0, 1], got {rotation_fraction}"
            )
        if interval_minutes <= 0:
            raise ValueError(
                f"interval_minutes must be positive, got {interval_minutes}"
            )
        self.rotation_fraction = rotation_fraction
        self.interval_minutes = interval_minutes
        self.refill_lookup = refill_lookup
        self.rotations_performed = 0

    # ------------------------------------------------------------------
    def apply(self, protocol: KademliaProtocol, rng: random.Random) -> int:
        """Rotate contacts in ``protocol``'s full buckets; returns the count."""
        table = protocol.routing_table
        config = protocol.config
        rotated = 0
        # Snapshot the bucket list first: refill lookups triggered below may
        # create new (empty) buckets while we iterate.
        for bucket in list(table.buckets()):
            if not bucket.is_full:
                continue
            if self.rotation_fraction < 1.0 and rng.random() >= self.rotation_fraction:
                continue
            oldest = bucket.oldest()
            if oldest is None:
                continue
            table.remove_contact(oldest.node_id)
            rotated += 1
            if self.refill_lookup:
                target = random_id_in_bucket(
                    table.owner_id, bucket.index, config.bit_length, rng
                )
                protocol.lookup(target)
        self.rotations_performed += rotated
        return rotated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContactRotationPolicy(rotation_fraction={self.rotation_fraction}, "
            f"interval_minutes={self.interval_minutes})"
        )
