"""The primary hash index (unique key -> row slot).

The paper indexes every table with primary and secondary hash tables and
pre-resolves range-query keys (hash indexes cannot scan).  A secondary
index is a plain ``dict`` of ints kept by :class:`~repro.storage.table.Table`:
column value -> the newest row slot holding it, the one thing its reader
(TPC-C OrderStatus's "latest order") asks for.
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

    def copy(self) -> "PrimaryIndex":
        clone = PrimaryIndex()
        clone._map = dict(self._map)
        return clone

