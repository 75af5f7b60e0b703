"""Protocol interface — the PeerSim "EDProtocol" equivalent.

A protocol instance is attached to exactly one :class:`SimNode` and handles
the request messages delivered to that node by the transport.  The Kademlia
implementation in :mod:`repro.kademlia.protocol` is the only production
protocol, but tests register lightweight fake protocols to exercise the
transport in isolation.

**Lifecycle.**  A protocol is built when its node joins, receives
:meth:`Protocol.on_join`, and when the node leaves, :meth:`Protocol.on_leave`
and then :meth:`Protocol.close`.  A closed protocol never acts again: churn
mints a fresh id for every join, so a departed id never rejoins, and every
caller that could reach a protocol (the transport, the lookups, traffic
actions, maintenance timers) tests its node's ``alive`` flag first.  A
finished simulation closes every protocol it still holds.
"""

from __future__ import annotations

import abc
from typing import Any, Optional


class Protocol(abc.ABC):
    """Base class for node protocols."""

    #: Name under which the protocol registers itself on its node.
    protocol_name: str = "protocol"

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    @abc.abstractmethod
    def handle_request(self, sender_id: int, request: Any) -> Optional[Any]:
        """Handle a request from ``sender_id`` and return the response payload.

        Returning ``None`` models a node that received the request but sends
        no answer (the requester will treat it as a failed round-trip).
        """

    def on_join(self, time: float) -> None:
        """Hook invoked when the owning node joins the network."""

    def on_leave(self, time: float) -> None:
        """Hook invoked when the owning node leaves the network.

        The node is already marked dead; :meth:`close` follows right after,
        so this is the last moment the protocol's state is intact.
        """

    def close(self) -> None:
        """This node will never act again: drop its state.

        Called once the node has left (after :meth:`on_leave`) and, for the
        nodes still alive, when the simulation is torn down.  It must be
        safe to call twice.  A no-op here; protocols that hold routing
        state or stored data empty it, so a departed node costs its
        :class:`~repro.simulator.node.SimNode` record and nothing more.
        """
