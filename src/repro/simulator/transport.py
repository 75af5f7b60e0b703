"""Message transport with per-message loss.

The paper's message-loss model (Table 1) specifies the probability that a
*one-way* message is lost; a request/response round-trip fails when either
direction is lost.

**The round-trip contract.**  One round-trip from a sender to a target id
is these steps, in this order; :meth:`Transport.rpc` implements them, and
so does anything that stands in for it (below):

1. count the request (``requests_sent``; under observability also the
   per-request-type count);
2. resolve the target — dead or unknown: count ``requests_to_dead_nodes``
   and fail, *without* a draw (this is how churn reaches the protocols);
3. draw the request leg from ``rng`` (only if ``loss_probability > 0``) —
   lost: count ``requests_lost`` and fail; the target never sees the
   request;
4. find the target's protocol under ``protocol_name`` — none: count
   ``requests_to_dead_nodes`` and fail;
5. the target handles the request, with all its side effects (it learns
   about the sender).  No answer: count ``responses_lost`` and fail,
   without a draw;
6. draw the response leg — lost: count ``responses_lost`` and fail, even
   though the target processed the request;
7. count ``round_trips_ok`` and deliver the answer.

Every step is observable: the counters are persisted in result documents,
and the position of the random stream after a round-trip decides every
later draw of the run, so the order above is part of the golden digests.

**Who may bypass** ``rpc``.  Exactly one caller: the Kademlia lookup's
direct FIND_NODE hop (:mod:`repro.kademlia.lookup`), which performs steps
1–7 itself on this object's ``stats``, ``rng``, ``network`` and
``obs_request_counts`` — and only when ``type(transport).rpc`` is
:meth:`Transport.rpc`, so a subclass that overrides ``rpc`` still sees
every round-trip.  ``tests/kademlia/test_lookup_deferred.py`` holds the two
to the same counters and the same ``rng`` state after every operation.
Everything else — STORE, PING, FIND_VALUE, Chord, Pastry — calls ``rpc``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.obs import active as obs_active
from repro.simulator.network import Network


@dataclass(slots=True)
class TransportStats:
    """Counters describing the traffic a simulation produced."""

    requests_sent: int = 0
    requests_lost: int = 0
    responses_lost: int = 0
    requests_to_dead_nodes: int = 0
    round_trips_ok: int = 0

    @property
    def round_trips_failed(self) -> int:
        """Total failed round-trips, from any cause."""
        return self.requests_lost + self.responses_lost + self.requests_to_dead_nodes

    def reset(self) -> None:
        """Zero all counters."""
        self.requests_sent = 0
        self.requests_lost = 0
        self.responses_lost = 0
        self.requests_to_dead_nodes = 0
        self.round_trips_ok = 0


class Transport:
    """Synchronous request/response transport with Bernoulli message loss.

    Parameters
    ----------
    network:
        The node registry used to resolve target ids.
    loss_probability:
        Probability that a single one-way message is lost (paper Table 1,
        column ``Ploss(1-way)``).
    rng:
        Random stream used for the loss draws.
    protocol_name:
        Name of the protocol each request is dispatched to.
    """

    def __init__(
        self,
        network: Network,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        protocol_name: str = "kademlia",
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        self.network = network
        self.loss_probability = loss_probability
        self.rng = rng or random.Random()
        self.protocol_name = protocol_name
        self.stats = TransportStats()
        #: Per-request-type counts, recorded only under observability
        #: (``None`` when off, so the hot path below pays one ``is not
        #: None`` check).  Kept as a plain dict, not registry counters:
        #: ``rpc`` runs once per simulated round-trip and the experiment
        #: runner folds the totals into the run's registry at the end.
        #: Deliberately NOT part of :class:`TransportStats`, which is
        #: persisted into result documents and therefore frozen by the
        #: determinism digests.
        self.obs_request_counts: Optional[dict] = (
            {} if obs_active() is not None else None
        )

    # ------------------------------------------------------------------
    def one_way_lost(self) -> bool:
        """Draw whether a single one-way message is lost."""
        if self.loss_probability <= 0.0:
            return False
        return self.rng.random() < self.loss_probability

    def rpc(
        self, sender_id: int, target_id: int, request: Any
    ) -> Tuple[bool, Optional[Any]]:
        """Perform a request/response round-trip.

        Returns ``(success, response)``.  ``success`` is False when the
        target is dead/unknown, the request leg was lost, the target chose
        not to answer, or the response leg was lost.

        Steps 1–7 of the module docstring's round-trip contract.  The loss
        draws replicate :meth:`one_way_lost` inline (drawing from the same
        stream in the same order), and target resolution is a single dict
        probe — this method runs once per simulated round-trip.
        """
        stats = self.stats
        stats.requests_sent += 1
        counts = self.obs_request_counts
        if counts is not None:
            name = type(request).__name__
            counts[name] = counts.get(name, 0) + 1

        target = self.network.get_alive(target_id)
        if target is None:
            stats.requests_to_dead_nodes += 1
            return False, None

        loss = self.loss_probability
        if loss > 0.0 and self.rng.random() < loss:
            stats.requests_lost += 1
            return False, None

        protocol = target.protocols.get(self.protocol_name)
        if protocol is None:
            stats.requests_to_dead_nodes += 1
            return False, None
        response = protocol.handle_request(sender_id, request)
        if response is None:
            stats.responses_lost += 1
            return False, None

        if loss > 0.0 and self.rng.random() < loss:
            stats.responses_lost += 1
            return False, None

        stats.round_trips_ok += 1
        return True, response

    # ------------------------------------------------------------------
    def two_way_loss_probability(self) -> float:
        """Probability that a request/response round-trip fails due to loss.

        Matches the paper's ``Ploss(2-way)`` column:
        ``1 - (1 - p)**2`` for one-way probability ``p``.
        """
        p = self.loss_probability
        return 1.0 - (1.0 - p) ** 2
