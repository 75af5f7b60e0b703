"""Simulation node container.

A :class:`SimNode` is the simulator-level wrapper around a network
participant: it owns the node's protocol instances (in this project, one
Kademlia protocol) and its liveness state.  The Kademlia logic itself lives
in :mod:`repro.kademlia.protocol`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class SimNode:
    """One network participant in the simulation.

    Attributes
    ----------
    node_id:
        The Kademlia identifier (an integer in ``[0, 2**b)``).
    joined_at:
        Simulated time at which the node joined the network.
    alive:
        False once the node has left (or been removed by churn); dead nodes
        remain addressable so in-flight references to them fail the way a
        crashed host would, but their protocols are closed.
    """

    __slots__ = ("node_id", "joined_at", "alive", "left_at", "protocols")

    def __init__(self, node_id: int, joined_at: float = 0.0) -> None:
        self.node_id = node_id
        self.joined_at = joined_at
        self.alive = True
        self.left_at: Optional[float] = None
        self.protocols: Dict[str, Any] = {}

    def register_protocol(self, name: str, protocol: Any) -> None:
        """Attach a protocol instance under ``name`` (e.g. ``"kademlia"``)."""
        self.protocols[name] = protocol

    def protocol(self, name: str) -> Any:
        """Return the protocol registered under ``name``."""
        return self.protocols[name]

    def kill(self, time: float) -> None:
        """Mark the node as having left the network at ``time``."""
        self.alive = False
        self.left_at = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"SimNode(id={self.node_id:#x}, {state})"
