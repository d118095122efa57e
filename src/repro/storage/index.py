"""A table's indexes (unique int64 key -> row slot), as int64 arrays.

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

A table loaded with exactly the keys ``0..n-1`` (:meth:`PrimaryIndex.load`)
keeps them as a dense prefix: key ``k < n`` is row ``k`` and holds no
entry, which is what makes 10M-row YCSB tables loadable.  Every read
and insert applies the prefix, so no caller decides it.

The ordered index (:class:`OrderedIndex`, the paper's range-query
future work) is two int64 arrays kept sorted by key: a range is two
binary searches and a slice, and the cost model prices it as the B+-tree
it stands for (:attr:`OrderedIndex.height`).

A secondary index is kept by :class:`~repro.storage.table.Table` as an
int-only mapping: column value -> the newest row slot holding it, the
one thing its reader (TPC-C OrderStatus's "latest order") asks for.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DuplicateKey, KeyNotFound
from repro.xp import HOST, ArrayBackend

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
        #: Keys ``0..dense_limit-1`` are their own row slots (no entries).
        self._dense_limit = 0
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
        """The entry count (the dense prefix holds none)."""
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
        if 0 <= key < self._dense_limit:
            raise DuplicateKey(f"primary key {key} already present")
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
        if 0 <= key < self._dense_limit:
            return key
        keys, rows, mask = self._key_view, self._row_view, self._mask
        s = _home(key, self._bits, mask)
        while (row := rows[s]) >= 0:
            if keys[s] == key:
                return row
            s = (s + 1) & mask
        return None

    def lookup(self, key: int) -> int:
        # the prefix test repeats get's: a scalar read of a loaded table
        # (every BufferedContext read, write and add) then makes one call
        if 0 <= key < self._dense_limit:
            return key
        row = self.get(key)
        if row is None:
            raise KeyNotFound(f"primary key {key} not found")
        return row

    # -- bulk -----------------------------------------------------------------
    def load(self, keys: np.ndarray) -> None:
        """Index the keys of an empty table's rows ``0..n-1``: exactly
        ``0..n-1`` become the dense prefix, any other set must be unique
        (else :class:`DuplicateKey`, with nothing indexed)."""
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.size
        if n and keys[0] == 0 and keys[-1] == n - 1 and (np.diff(keys) == 1).all():
            self._dense_limit = n
            return
        if np.unique(keys).size != n:
            raise DuplicateKey("bulk_load keys must be unique")
        self.bulk_insert(keys, np.arange(n, dtype=np.int64))

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

    def rows_of(self, keys: np.ndarray, xp: ArrayBackend = HOST) -> np.ndarray:
        """The row slot of each key, ``-1`` where it is absent.  ``keys``
        and the result live on ``xp``: the dense prefix resolves there,
        and the other keys are read back explicitly, probed together on
        the host, and their slots ship down in one go."""
        dense = (keys >= 0) & (keys < self._dense_limit)
        rows = xp.where(dense, keys, -1)
        if not dense.all():
            nd = xp.flatnonzero(~dense)
            rows[nd] = xp.from_host(self._probe(xp.to_host(keys[nd])))
        return rows

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`rows_of` past the prefix: every key probes its home
        slot at once, and each round the keys that met neither their
        own entry nor a free slot probe the next.  A free slot's key
        reads 0, so key 0 "meets" it and reads its row, -1 — the right
        answer, since a free slot ends every probe."""
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
        clone._dense_limit = self._dense_limit
        clone._keys, clone._rows = self._keys.copy(), self._rows.copy()
        clone._views()
        return clone


#: Keys per node of the B+-tree whose height :attr:`OrderedIndex.height`
#: reports (fan-out 33).
_NODE_KEYS = 32


class OrderedIndex:
    """Unique int key -> row slot in key order: two int64 arrays kept
    sorted by key.  Each :meth:`add` merges into new arrays and never
    writes into the old ones, so a :meth:`copy` shares them."""

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._rows = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return self._keys.size

    @property
    def height(self) -> int:
        """The levels of a B+-tree of :data:`_NODE_KEYS` keys per node
        that took these entries by ascending appends — the cost model's
        index probe reads this many nodes.  Its leaves split in half
        when full, so it first has h+1 levels at t(h+1) = 17·t(h) −
        (16h − 1) entries, t(2) = 33: at 33, 530, 8,963, 152,308 and
        2,589,157 (each equal to a node-by-node tree's under ascending
        inserts, the only order the workloads produce)."""
        half = _NODE_KEYS // 2
        n, h, t = self._keys.size, 1, _NODE_KEYS + 1
        while n >= t:
            h += 1
            t = (half + 1) * t - (half * h - 1)
        return h

    def add(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Merge (key, row) pairs whose keys are absent and distinct (the
        primary index has refused any other) in one pass."""
        order = np.argsort(keys, kind="stable")
        keys, rows = keys[order], rows[order]
        at = np.searchsorted(self._keys, keys)
        self._keys = np.insert(self._keys, at, keys)
        self._rows = np.insert(self._rows, at, rows)

    def range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The keys with ``lo <= key <= hi`` and their rows, in key
        order (empty when ``lo > hi``)."""
        start = np.searchsorted(self._keys, lo, side="left")
        stop = np.searchsorted(self._keys, hi, side="right")
        return self._keys[start:stop], self._rows[start:stop]

    def copy(self) -> "OrderedIndex":
        clone = OrderedIndex()
        clone._keys, clone._rows = self._keys, self._rows
        return clone
