"""Per-node key/value store for disseminated data objects."""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class DataStore:
    """A node's local storage of disseminated data objects.

    The connectivity analysis never inspects stored values — only the
    communication caused by STORE/FIND_VALUE matters — but a real store is
    kept so the examples can demonstrate end-to-end data dissemination and
    retrieval.
    """

    def __init__(self) -> None:
        self._items: Dict[int, Any] = {}
        self._stored_at: Dict[int, float] = {}

    def put(self, key_id: int, value: Any, time: float = 0.0) -> None:
        """Store ``value`` under ``key_id`` (overwrites any previous value)."""
        self._items[key_id] = value
        self._stored_at[key_id] = time

    def get(self, key_id: int) -> Optional[Any]:
        """Return the value stored under ``key_id`` (None if absent)."""
        return self._items.get(key_id)

    def has(self, key_id: int) -> bool:
        """True if a value is stored under ``key_id``."""
        return key_id in self._items

    def keys(self) -> List[int]:
        """Return all stored key identifiers."""
        return list(self._items)

    def stored_at(self, key_id: int) -> Optional[float]:
        """Return the simulated time at which ``key_id`` was stored."""
        return self._stored_at.get(key_id)

    def clear(self) -> None:
        """Drop every stored value."""
        self._items.clear()
        self._stored_at.clear()

    def __len__(self) -> int:
        return len(self._items)
