"""The primary hash index (unique int64 key -> row slot), as arrays.

The paper gives every table a primary hash table that GPU threads probe
together.  This one is open addressing over two int64 arrays, ``keys``
and ``rows`` (a negative row marks a free slot), with a power-of-two
capacity at least twice the entry count and linear probing.  A batch
probes (:meth:`PrimaryIndex.rows_of`) or claims
(:meth:`PrimaryIndex.bulk_insert`) its whole key array at once, in
rounds of gathers and scatters, so no key becomes a Python object on
the way; growth doubles the arrays and re-inserts every entry in one
such claim.  The scalar calls the per-transaction context, the oracle
and ``apply_local_sets`` make (:meth:`~PrimaryIndex.insert`,
:meth:`~PrimaryIndex.get`, :meth:`~PrimaryIndex.lookup`) walk the same
arrays through memoryviews, a few integer operations per probe and no
array allocated.

A key's home slot is ``(k ^ k >> b ^ k >> 2b) & mask`` with ``b`` the
capacity's log2: a run of consecutive keys inside one aligned block of
the capacity (TPC-C's monotone order ids, ``order_line``'s
``o_id * 16 + line``) lands on as many distinct slots, and the shifted
terms fold the higher bits in, so keys that differ only there
(``i << 20``) do not pile onto one slot.

A secondary index is kept by :class:`~repro.storage.table.Table` as an
int-only mapping: column value -> the newest row slot holding it, the
one thing its reader (TPC-C OrderStatus's "latest order") asks for.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DuplicateKey, KeyNotFound

#: Capacity of an empty index (a power of two).
_MIN_BITS = 4


def _home(keys, bits: int, mask: int):
    """The home slot of each key (an int64 array or one Python int —
    the same bits either way: both shift arithmetically)."""
    return (keys ^ (keys >> bits) ^ (keys >> (2 * bits))) & mask


class PrimaryIndex:
    """Unique int key -> row slot, open addressing over two int64 arrays."""

    def __init__(self) -> None:
        self._n = 0
        self._allocate(_MIN_BITS)

    def _allocate(self, bits: int) -> None:
        capacity = 1 << bits
        self._bits = bits
        self._mask = capacity - 1
        self._keys = np.zeros(capacity, dtype=np.int64)
        self._rows = np.full(capacity, -1, dtype=np.int64)
        self._views()

    def _views(self) -> None:
        # memoryview items are Python ints: the scalar paths index these
        # (about half the cost of a NumPy scalar read)
        self._key_view = memoryview(self._keys)
        self._row_view = memoryview(self._rows)

    def __len__(self) -> int:
        return self._n

    def _reserve(self, n: int) -> None:
        """Keep the load at most one half with ``n`` entries: double the
        capacity as often as needed, then re-insert every entry at once."""
        bits = self._bits
        while n << 1 > 1 << bits:
            bits += 1
        if bits == self._bits:
            return
        live = self._rows >= 0
        keys, rows = self._keys[live], self._rows[live]
        self._allocate(bits)
        self._claim(keys, rows)

    def _claim(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Place (key, row) pairs whose keys are absent and distinct and
        whose rows are non-negative and distinct, from each other and
        from the rows present (table slots are).  Each round every
        pending key writes its row into its slot if the slot is free;
        the row that stuck is that slot's owner, and the rest move one
        slot on."""
        table_keys, table_rows, mask = self._keys, self._rows, self._mask
        slot = _home(keys, self._bits, mask)
        while keys.size:
            free = table_rows[slot] < 0
            table_rows[slot[free]] = rows[free]
            won = table_rows[slot] == rows
            table_keys[slot[won]] = keys[won]
            if won.all():
                return
            lost = ~won
            keys, rows = keys[lost], rows[lost]
            slot = (slot[lost] + 1) & mask

    # -- scalar ---------------------------------------------------------------
    def insert(self, key: int, row: int) -> None:
        if (self._n + 1) << 1 > self._mask + 1:
            self._reserve(self._n + 1)
        keys, rows, mask = self._key_view, self._row_view, self._mask
        s = _home(key, self._bits, mask)
        while rows[s] >= 0:
            if keys[s] == key:
                raise DuplicateKey(f"primary key {key} already present")
            s = (s + 1) & mask
        keys[s] = key
        rows[s] = row
        self._n += 1

    def get(self, key: int) -> int | None:
        keys, rows, mask = self._key_view, self._row_view, self._mask
        s = _home(key, self._bits, mask)
        while (row := rows[s]) >= 0:
            if keys[s] == key:
                return row
            s = (s + 1) & mask
        return None

    def lookup(self, key: int) -> int:
        row = self.get(key)
        if row is None:
            raise KeyNotFound(f"primary key {key} not found")
        return row

    # -- bulk -----------------------------------------------------------------
    def bulk_insert(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Register many (key, row) pairs at once; the caller guarantees
        the keys are new and distinct (the batched write-back dedups
        before claiming slots) and the rows distinct table slots."""
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return
        self._reserve(self._n + keys.size)
        self._claim(keys, np.asarray(rows, dtype=np.int64))
        self._n += keys.size

    def rows_of(self, keys: np.ndarray) -> np.ndarray:
        """The row slot of each key, ``-1`` where it is absent: every
        key probes its home slot at once, and each round the keys that
        met neither their own entry nor a free slot probe the next.  A
        free slot's key reads 0, so key 0 "meets" it and reads its row,
        -1 — the right answer, since a free slot ends every probe."""
        keys = np.asarray(keys, dtype=np.int64)
        table_keys, table_rows, mask = self._keys, self._rows, self._mask
        slot = _home(keys, self._bits, mask)
        rows = table_rows[slot]
        hit = table_keys[slot] == keys
        out = np.where(hit, rows, -1)
        pos = np.flatnonzero(~hit & (rows >= 0))
        slot, keys = slot[pos], keys[pos]
        while pos.size:
            slot = (slot + 1) & mask
            rows = table_rows[slot]
            hit = table_keys[slot] == keys
            out[pos[hit]] = rows[hit]
            more = ~hit & (rows >= 0)
            pos, slot, keys = pos[more], slot[more], keys[more]
        return out

    def copy(self) -> "PrimaryIndex":
        clone = PrimaryIndex()
        clone._n, clone._bits, clone._mask = self._n, self._bits, self._mask
        clone._keys, clone._rows = self._keys.copy(), self._rows.copy()
        clone._views()
        return clone
