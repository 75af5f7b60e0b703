"""Kademlia protocol parameters.

The defaults match the values the Kademlia authors chose and the paper
quotes in Section 4.1: ``b = 160``, ``k = 20``, ``alpha = 3``, ``s = 5``.
The evaluation varies ``k in {5, 10, 20, 30}``, ``alpha in {3, 5}``,
``b in {80, 160}`` and ``s in {1, 5}``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict


@dataclass(frozen=True)
class KademliaConfig:
    """Immutable bundle of the protocol parameters.

    Attributes
    ----------
    bit_length:
        ``b`` — number of bits in node and key identifiers.
    bucket_size:
        ``k`` — maximum number of contacts per k-bucket; also the
        replication factor of lookups and disseminations.
    alpha:
        Request parallelism of iterative lookups.
    staleness_limit:
        ``s`` — consecutive failed round-trips after which a contact is
        considered stale and removed from the routing table.
    refresh_interval_minutes:
        Period of the maintenance bucket refresh (paper: 60 minutes).
    learn_from_responses:
        If True (default), contacts listed in FIND_NODE responses are also
        inserted into the requester's routing table (subject to the normal
        bucket policy), in addition to the responder itself.  The original
        Kademlia paper only mandates adding nodes one has directly
        exchanged messages with, but the PeerSim Kademlia module used by
        the paper's evaluation inserts learned neighbours as well, and the
        paper's loss results (Figures 12–14) depend on routing tables being
        refilled quickly after loss-driven evictions.  Setting this to
        False reverts to the strict direct-contact-only rule.
    refresh_all_buckets:
        If True, a bucket refresh looks up a random identifier in *every*
        bucket range, as the paper describes.  If False (default), only
        non-empty buckets and the bucket covering the node's nearest
        neighbours are refreshed — a standard optimisation used by deployed
        implementations that does not change connectivity dynamics but keeps
        pure-Python simulations fast.  The paper-scale profile enables the
        faithful behaviour.
    bootstrap_reseed:
        If True (default), a node keeps its configured bootstrap address
        outside the routing table and falls back to it whenever its table
        has emptied out or it has never completed a successful outgoing
        round-trip.  Deployed implementations behave this way; without it,
        message loss during the join (Simulations J–L) permanently
        partitions the simulated network — see the
        ``test_ablation_bootstrap_recovery`` benchmark.
    """

    bit_length: int = 160
    bucket_size: int = 20
    alpha: int = 3
    staleness_limit: int = 5
    refresh_interval_minutes: float = 60.0
    learn_from_responses: bool = True
    refresh_all_buckets: bool = False
    bootstrap_reseed: bool = True

    def __post_init__(self) -> None:
        if self.bit_length <= 0:
            raise ValueError(f"bit_length must be positive, got {self.bit_length}")
        if self.bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {self.bucket_size}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.staleness_limit <= 0:
            raise ValueError(
                f"staleness_limit must be positive, got {self.staleness_limit}"
            )
        if self.refresh_interval_minutes <= 0:
            raise ValueError(
                "refresh_interval_minutes must be positive, got "
                f"{self.refresh_interval_minutes}"
            )

    # ------------------------------------------------------------------
    @property
    def id_space_size(self) -> int:
        """Number of distinct identifiers, ``2**bit_length``."""
        return 1 << self.bit_length

    def with_overrides(self, **changes: Any) -> "KademliaConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Return the configuration as a plain dictionary (for reports)."""
        return {
            "bit_length": self.bit_length,
            "bucket_size": self.bucket_size,
            "alpha": self.alpha,
            "staleness_limit": self.staleness_limit,
            "refresh_interval_minutes": self.refresh_interval_minutes,
            "learn_from_responses": self.learn_from_responses,
            "refresh_all_buckets": self.refresh_all_buckets,
            "bootstrap_reseed": self.bootstrap_reseed,
        }

    @classmethod
    def paper_default(cls) -> "KademliaConfig":
        """The default parameter set quoted in the paper (b=160, k=20, alpha=3, s=5)."""
        return cls()
