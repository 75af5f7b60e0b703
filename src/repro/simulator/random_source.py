"""Seeded random streams.

Every stochastic component of a simulation (bootstrap times, churn, traffic,
message loss, node identifiers, ...) draws from its own named child stream
derived from one root seed.  Streams are independent, so e.g. changing the
traffic model does not perturb the churn sequence — a property the
experiment framework relies on when comparing scenarios that differ in a
single dimension, exactly like the paper's one-dimension-at-a-time sweeps.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.digest import sha256


class RandomSource:
    """A root seed fanned out into named, reproducible child streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this source was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the named child stream (created on first use).

        The child seed is derived by hashing ``(root seed, name)`` so that
        streams are stable across runs and independent of the order in which
        they are first requested.
        """
        if name not in self._streams:
            digest = sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
            child_seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(child_seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomSource":
        """Return a new RandomSource whose root seed derives from ``name``.

        Used by parameter sweeps to give every scenario replication its own
        independent but reproducible universe of streams.
        """
        digest = sha256(f"{self._seed}/{name}".encode("utf-8")).digest()
        return RandomSource(int.from_bytes(digest[:8], "big"))
