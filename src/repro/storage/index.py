"""Hash indexes: primary (unique key -> row slot) and secondary
(non-unique key -> row slots).

The paper indexes every table with primary and secondary hash tables and
pre-resolves range-query keys (hash indexes cannot scan).  The secondary
index here supports exactly that access path: equality lookup returning
the matching row slots in insertion order, which is deterministic.
"""

from __future__ import annotations

from itertools import repeat

from repro.errors import DuplicateKey, KeyNotFound


class PrimaryIndex:
    """Unique int key -> row slot."""

    def __init__(self) -> None:
        self._map: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: int) -> bool:
        return key in self._map

    def insert(self, key: int, row: int) -> None:
        if key in self._map:
            raise DuplicateKey(f"primary key {key} already present")
        self._map[key] = row

    def bulk_insert(self, keys, rows) -> None:
        """Register many (key, row) pairs at once; the caller guarantees
        the keys are new and distinct (the batched write-back dedups
        before claiming slots)."""
        self._map.update(zip(keys, rows))

    def lookup(self, key: int) -> int:
        try:
            return self._map[key]
        except KeyError:
            raise KeyNotFound(f"primary key {key} not found") from None

    def get(self, key: int) -> int | None:
        return self._map.get(key)

    def slots(self, keys: list[int]) -> list[int]:
        """The row slot of each key, ``-1`` where it is absent."""
        return list(map(self._map.get, keys, repeat(-1)))

    def keys(self):
        return self._map.keys()

    def copy(self) -> "PrimaryIndex":
        clone = PrimaryIndex()
        clone._map = dict(self._map)
        return clone


class SecondaryIndex:
    """Non-unique int key -> row slots, in deterministic insert order."""

    def __init__(self, name: str):
        self.name = name
        self._map: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._map)

    def insert(self, key: int, row: int) -> None:
        self._map.setdefault(key, []).append(row)

    def lookup(self, key: int) -> list[int]:
        """All row slots for ``key`` (empty list if none)."""
        return list(self._map.get(key, ()))

    def last(self, key: int) -> int:
        """The most recently inserted row for ``key`` (TPC-C
        OrderStatus-style 'latest order' lookups)."""
        rows = self._map.get(key)
        if not rows:
            raise KeyNotFound(f"secondary index {self.name!r}: key {key} not found")
        return rows[-1]

    def copy(self) -> "SecondaryIndex":
        clone = SecondaryIndex(self.name)
        clone._map = {k: list(v) for k, v in self._map.items()}
        return clone
