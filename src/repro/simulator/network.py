"""Registry of simulation nodes."""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Mapping, Optional

from repro.simulator.errors import NodeNotFoundError
from repro.simulator.node import SimNode


class Network:
    """The set of nodes known to the simulation.

    Nodes are kept after they die (``alive=False``) so that routing-table
    entries pointing at them can be resolved — and fail — the same way a
    request to a crashed host would fail in a real deployment.  A dead
    node stays addressable, but its protocol is closed
    (:meth:`~repro.simulator.protocol.Protocol.close`): nothing may act on
    it, and the transport never hands it a request.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, SimNode] = {}

    # ------------------------------------------------------------------
    def add_node(self, node: SimNode) -> None:
        """Register ``node``; its id must be unique."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id:#x}")
        self._nodes[node.node_id] = node

    def remove_node(self, node_id: int, time: float) -> SimNode:
        """Mark the node as dead (it stays addressable)."""
        node = self.get(node_id)
        node.kill(time)
        return node

    def forget_node(self, node_id: int) -> None:
        """Completely remove a node from the registry (tests only)."""
        if node_id not in self._nodes:
            raise NodeNotFoundError(node_id)
        del self._nodes[node_id]

    def clear(self) -> None:
        """Forget every node (the teardown of a finished simulation)."""
        self._nodes.clear()

    # ------------------------------------------------------------------
    def get(self, node_id: int) -> SimNode:
        """Return the node with ``node_id`` (dead or alive)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def contains(self, node_id: int) -> bool:
        """Return True if ``node_id`` is registered (dead or alive)."""
        return node_id in self._nodes

    def is_alive(self, node_id: int) -> bool:
        """Return True if the node exists and has not left the network."""
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    def get_alive(self, node_id: int) -> Optional[SimNode]:
        """Return the node if it exists and is alive, else None.

        One dict probe instead of the ``contains`` + ``is_alive`` + ``get``
        triple — this sits on the transport's per-RPC fast path.
        """
        node = self._nodes.get(node_id)
        if node is not None and node.alive:
            return node
        return None

    @property
    def nodes_by_id(self) -> Mapping[int, SimNode]:
        """The registry itself, ``id -> node``, dead nodes included; read-only.

        For a caller that resolves one target per simulated round-trip and
        cannot afford a call per probe: fetch the mapping once, then
        ``nodes.get(target_id)`` and test ``node.alive`` — what
        :meth:`get_alive` does.
        """
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[SimNode]:
        return iter(self._nodes.values())

    # ------------------------------------------------------------------
    def alive_nodes(self) -> List[SimNode]:
        """Return all currently alive nodes (insertion order)."""
        return [node for node in self._nodes.values() if node.alive]

    def alive_ids(self) -> List[int]:
        """Return the ids of all alive nodes."""
        return [node.node_id for node in self._nodes.values() if node.alive]

    def alive_count(self) -> int:
        """Return the number of alive nodes."""
        return sum(1 for node in self._nodes.values() if node.alive)

    def random_alive_node(
        self, rng: random.Random, exclude: Optional[int] = None
    ) -> Optional[SimNode]:
        """Return a uniformly random alive node, optionally excluding one id.

        Returns ``None`` if no eligible node exists.  Used for bootstrap-node
        selection ("the bootstrap node is randomly chosen from the already
        joined nodes", paper Section 5.3) and for churn target selection.
        """
        candidates = [
            node
            for node in self._nodes.values()
            if node.alive and node.node_id != exclude
        ]
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]
