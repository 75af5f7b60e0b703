"""Node identifiers and the XOR metric.

Identifiers are integers in ``[0, 2**b)``.  The paper (Section 4.1) derives
node ids from network addresses with a cryptographic hash to get a uniform
distribution over the id space; in the simulation we either hash a given
address string (``id_from_key``) or draw ids uniformly at random
(``generate_node_id``), which is distributionally equivalent.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Set

from repro.digest import sha256


def xor_distance(id_a: int, id_b: int) -> int:
    """Return the XOR distance ``id_a ^ id_b`` interpreted as an integer."""
    if id_a < 0 or id_b < 0:
        raise ValueError("identifiers must be non-negative")
    return id_a ^ id_b


def bucket_index(own_id: int, other_id: int) -> int:
    """Return the k-bucket index of ``other_id`` relative to ``own_id``.

    The bucket with index ``i`` holds contacts whose distance ``d`` obeys
    ``2**i <= d < 2**(i+1)``, i.e. ``i = floor(log2(d))`` — computed as
    ``bit_length() - 1`` on the XOR distance.  The two ids must differ
    (distance 0 has no bucket).
    """
    if own_id < 0 or other_id < 0:
        raise ValueError("identifiers must be non-negative")
    distance = own_id ^ other_id
    if distance == 0:
        raise ValueError("a node has no bucket for its own identifier")
    return distance.bit_length() - 1


def generate_node_id(
    bit_length: int,
    rng: Optional[random.Random] = None,
    exclude: Optional[Set[int]] = None,
) -> int:
    """Draw a fresh uniformly random identifier.

    ``exclude`` guards against collisions among simulated nodes; with
    ``b = 160`` collisions are practically impossible but with the reduced
    ``b = 80`` (or tiny test values) the guard keeps node ids unique.
    """
    rng = rng or random.Random()
    space = 1 << bit_length
    exclude = exclude or set()
    if len(exclude) >= space:
        raise ValueError("identifier space exhausted")
    while True:
        candidate = rng.randrange(space)
        if candidate not in exclude:
            return candidate


def id_from_key(key: str, bit_length: int) -> int:
    """Hash an arbitrary string key into the identifier space.

    Mirrors how real deployments derive ids for data objects: SHA-256 of the
    key, truncated to ``bit_length`` bits.
    """
    digest = sha256(key.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big")
    return value & ((1 << bit_length) - 1)


def random_id_in_bucket(
    own_id: int, index: int, bit_length: int, rng: Optional[random.Random] = None
) -> int:
    """Return a random identifier that falls into bucket ``index`` of ``own_id``.

    Used by the bucket-refresh maintenance procedure: the node looks up a
    random id from the id range of each k-bucket (paper Section 5.3,
    "Network Traffic").
    """
    if not 0 <= index < bit_length:
        raise ValueError(f"bucket index {index} out of range for b={bit_length}")
    rng = rng or random.Random()
    # A distance d with 2**index <= d < 2**(index+1).
    distance = (1 << index) + rng.randrange(1 << index)
    return own_id ^ distance


def sort_by_distance(ids: Iterable[int], target: int) -> List[int]:
    """Return ``ids`` sorted by XOR distance to ``target`` (closest first).

    The sort key is the bound C method ``target.__xor__`` — equivalent to
    ``lambda node_id: node_id ^ target`` (XOR commutes) but evaluated
    without a Python frame per element, which matters because this runs
    for every lookup round and every FIND_NODE reply.
    """
    return sorted(ids, key=target.__xor__)


def closest(ids: Iterable[int], target: int, count: int) -> List[int]:
    """Return the ``count`` ids closest to ``target`` by XOR distance."""
    return sort_by_distance(ids, target)[:count]
