"""An eclipse-style adversarial node for lookup-resilience studies.

The paper's system model (Section 3) assumes a compromised node can "fully
impersonate the node towards the rest of the system", disseminate
information as a legitimate participant and deny requests.  The strongest
routing attack consistent with that model is the classic eclipse behaviour
studied by S/Kademlia (the paper's reference [1]): a compromised node keeps
answering lookups, but only ever refers the requester to *other compromised
nodes*, trying to trap the lookup inside the adversary's subgraph.

:class:`MaliciousKademliaProtocol` implements that behaviour on top of the
normal protocol so the disjoint-path lookup study
(:mod:`repro.extensions.evaluation`) can measure how many node-disjoint
paths are needed before lookups reliably escape the adversary — the
operational pay-off of the connectivity the paper measures.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.kademlia.config import KademliaConfig
from repro.kademlia.messages import (
    FindNodeRequest,
    FindNodeResponse,
    FindValueRequest,
    FindValueResponse,
    StoreRequest,
    StoreResponse,
)
from repro.kademlia.node_id import sort_by_distance
from repro.kademlia.protocol import KademliaProtocol


class MaliciousKademliaProtocol(KademliaProtocol):
    """A compromised node that answers lookups with accomplices only."""

    def __init__(
        self,
        node_id: int,
        config: KademliaConfig,
        accomplices: Optional[Iterable[int]] = None,
    ) -> None:
        super().__init__(node_id, config)
        self._accomplices: Set[int] = set(accomplices or ())
        self._accomplices.discard(node_id)
        #: While False the node behaves honestly — studies use this to let
        #: the network bootstrap normally before the compromise happens.
        self.active = True
        self.poisoned_responses = 0
        self.dropped_stores = 0

    # ------------------------------------------------------------------
    @property
    def accomplices(self) -> Set[int]:
        """The compromised nodes this node advertises instead of honest ones."""
        return set(self._accomplices)

    # ------------------------------------------------------------------
    def handle_request(self, sender_id: int, request):
        """Answer like a legitimate node, but poison every contact list."""
        if not self.active:
            return super().handle_request(sender_id, request)
        if isinstance(request, FindNodeRequest):
            self.note_contact(sender_id)
            self.poisoned_responses += 1
            return FindNodeResponse(
                responder_id=self.node_id,
                contacts=self._poisoned_contacts(request.target_id),
            )
        if isinstance(request, FindValueRequest):
            self.note_contact(sender_id)
            self.poisoned_responses += 1
            return FindValueResponse(
                responder_id=self.node_id,
                value=None,
                contacts=self._poisoned_contacts(request.key_id),
            )
        if isinstance(request, StoreRequest):
            # Accept the request so the victim believes the store succeeded,
            # but silently discard the data (Section 3: "hinder or prevent
            # information exchange").
            self.note_contact(sender_id)
            self.dropped_stores += 1
            return StoreResponse(responder_id=self.node_id, stored=True)
        return super().handle_request(sender_id, request)

    def _poisoned_contacts(self, target_id: int):
        closest = sort_by_distance(self._accomplices, target_id)
        return tuple(closest[: self.config.bucket_size])
