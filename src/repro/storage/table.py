"""Column-oriented in-memory tables.

Storage is structure-of-arrays (one int64 NumPy array per column), which
is both what a GPU engine would keep in global memory and what lets the
simulator's kernels run vectorized.  Rows are addressed by *slot*
(insertion index); the primary index maps keys to slots.  Slots are
never reused, so a slot is a stable item identity for conflict logging.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.index import OrderedIndex, PrimaryIndex
from repro.storage.schema import Schema
from repro.xp import HOST, ArrayBackend

#: Initial capacity for tables created without an explicit size hint.
_DEFAULT_CAPACITY = 1024


class Table:
    """One table: key array + attribute columns + indexes."""

    def __init__(self, schema: Schema, capacity: int = _DEFAULT_CAPACITY):
        if capacity <= 0:
            raise StorageError("table capacity must be positive")
        self.schema = schema
        self._capacity = capacity
        self._num_rows = 0
        self._keys = np.zeros(capacity, dtype=np.int64)
        self._columns: dict[str, np.ndarray] = {
            c.name: np.full(capacity, c.default, dtype=np.int64)
            for c in schema.columns
        }
        self.primary = PrimaryIndex()
        #: Secondary indexes by column: value -> the newest row slot
        #: holding it (an int-only dict, which the collector never tracks).
        self.secondary: dict[str, dict[int, int]] = {}
        #: Optional ordered index over primary keys (range-query extension).
        self.ordered: OrderedIndex | None = None
        #: Device-resident view hook (:mod:`repro.xp.residency`): while
        #: set, device-side scatters may leave host columns stale, and
        #: the host accessors below fence lazily before reading.
        self._resident_view = None

    # -- shape ----------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_rows

    @property
    def name(self) -> str:
        return self.schema.table_name

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def nbytes(self) -> int:
        """Live data footprint (populated rows only)."""
        return self._num_rows * self.schema.row_bytes

    def _grow(self, needed: int) -> None:
        if self._resident_view is not None:
            # Fence before reallocating so the copy takes a current
            # prefix; the grown arrays re-upload lazily on next touch.
            self._resident_view.fence()
        new_capacity = self._capacity
        while new_capacity < needed:
            new_capacity *= 2
        # One allocation + one copy of the old contents; the new tail
        # holds the column's default, like a fresh table's capacity.  A
        # default-0 tail is a zeroed allocation that is never written,
        # so capacity no row occupies yet costs no resident page
        # (np.resize tiles the old array across it).
        old_capacity = self._capacity

        def grown(arr: np.ndarray, default: int = 0) -> np.ndarray:
            if default:
                out = np.full(new_capacity, default, dtype=arr.dtype)
            else:
                out = np.zeros(new_capacity, dtype=arr.dtype)
            out[:old_capacity] = arr
            return out

        self._keys = grown(self._keys)
        for c in self.schema.columns:
            self._columns[c.name] = grown(self._columns[c.name], c.default)
        self._capacity = new_capacity

    # -- ordered index ------------------------------------------------------------
    def add_ordered_index(self) -> OrderedIndex:
        """Build an ordered index over primary keys, enabling
        :meth:`range_rows`.  Maintained automatically on insert."""
        if self.ordered is not None:
            raise StorageError(f"table {self.name!r} already has an ordered index")
        index = OrderedIndex()
        self._index_rows(0, self._num_rows, {}, index)
        self.ordered = index
        return index

    def range_rows(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """(key, row) pairs with lo <= key <= hi in key order; requires
        an ordered index."""
        if self.ordered is None:
            raise StorageError(
                f"table {self.name!r} has no ordered index; call "
                f"add_ordered_index() to enable range queries"
            )
        keys, rows = self.ordered.range(lo, hi)
        return list(zip(keys.tolist(), rows.tolist()))

    # -- secondary indexes ------------------------------------------------------
    def add_secondary_index(self, column: str) -> dict[int, int]:
        """Map each value of ``column`` to the newest row holding it;
        maintained on insert."""
        if column not in self._columns:
            raise StorageError(
                f"cannot index {self.name!r} on unknown column {column!r}"
            )
        if column in self.secondary:
            raise StorageError(f"secondary index on {column!r} already exists")
        index: dict[int, int] = {}
        self._index_rows(0, self._num_rows, {column: index}, None)
        self.secondary[column] = index
        return index

    # -- bulk loading ---------------------------------------------------------
    def bulk_load(self, keys: np.ndarray, columns: dict[str, np.ndarray]) -> None:
        """Vectorized population of an empty table: row ``i`` takes
        ``keys[i]``, which must be unique (:meth:`PrimaryIndex.load
        <repro.storage.index.PrimaryIndex.load>` indexes them, and
        refuses duplicates before any row moves)."""
        if self._num_rows:
            raise StorageError("bulk_load requires an empty table")
        self.check_columns(columns)
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.size
        if n == 0:
            return
        self.primary.load(keys)
        self._grow(n)
        self._keys[:n] = keys
        for name, values in columns.items():
            col = self.column(name)
            col[:n] = np.asarray(values, dtype=np.int64)
        self._num_rows = n
        if self._resident_view is not None:
            self._resident_view.host_written_all()
        self._index_rows(0, n, self.secondary, self.ordered)

    # -- writes -------------------------------------------------------------
    def insert(self, key: int, values: dict[str, int] | None = None) -> int:
        """Insert a row; returns its slot."""
        self.check_columns(values or ())
        if self._resident_view is not None:
            self._resident_view.fence()
        if self._num_rows + 1 > self._capacity:
            self._grow(self._num_rows + 1)
        row = self._num_rows
        self.primary.insert(int(key), row)
        self._keys[row] = key
        if values:
            for name, value in values.items():
                self._columns[name][row] = value
        self._num_rows += 1
        self._index_rows(row, row + 1, self.secondary, self.ordered)
        if self._resident_view is not None:
            self._resident_view.host_written_all()
        return row

    def append_keys(self, keys: np.ndarray) -> np.ndarray:
        """Phase one of a vectorized append: claim consecutive slots for
        ``keys`` (new and distinct — the caller dedups against the table
        and within the batch) and register them in the primary index.

        Returns the assigned row slots.  The caller scatters the new
        rows' column payloads, then calls :meth:`index_appended` so the
        secondary/ordered indexes see the final values — the same
        sequence a per-row :meth:`insert` loop produces.
        """
        keys = np.asarray(keys, dtype=np.int64)
        k = keys.size
        if k == 0:
            return keys
        start = self._num_rows
        if start + k > self._capacity:
            self._grow(start + k)
        rows = np.arange(start, start + k, dtype=np.int64)
        self._keys[start:start + k] = keys
        self._num_rows = start + k
        self.primary.bulk_insert(keys, rows)
        return rows

    def index_appended(self, rows: np.ndarray) -> None:
        """Phase two of a vectorized append: secondary and ordered index
        maintenance for ``rows``, the consecutive slots one
        :meth:`append_keys` call claimed."""
        if rows.size:
            start, stop = int(rows[0]), int(rows[-1]) + 1
            self._index_rows(start, stop, self.secondary, self.ordered)

    def _index_rows(
        self, start: int, stop: int, secondary: dict[str, dict[int, int]],
        ordered: OrderedIndex | None,
    ) -> None:
        """Point ``secondary``'s indexes and ``ordered`` at slots
        ``start..stop-1`` — every insert, load, append and backfill.
        Slots go in in order, so a value's newest row overwrites its
        older ones; the ordered index merges them in one pass."""
        rows = range(start, stop)
        for column, index in secondary.items():
            index.update(zip(self._columns[column][start:stop].tolist(), rows))
        if ordered is not None:
            ordered.add(self._keys[start:stop], np.arange(start, stop, dtype=np.int64))

    def write(self, row: int, column: str, value: int) -> None:
        self._check_row(row)
        self.column(column)[row] = value
        if self._resident_view is not None:
            self._resident_view.host_written(column)

    def add(self, row: int, column: str, delta: int) -> None:
        self._check_row(row)
        self.column(column)[row] += delta
        if self._resident_view is not None:
            self._resident_view.host_written(column)

    # -- reads ------------------------------------------------------------------
    def lookup(self, key: int) -> int:
        """Primary-key lookup; raises :class:`KeyNotFound`."""
        return self.primary.lookup(int(key))

    def get_row(self, key: int) -> int | None:
        return self.primary.get(int(key))

    def rows_of_keys(self, keys: np.ndarray, xp: ArrayBackend = HOST) -> np.ndarray:
        """Vectorized :meth:`get_row`: the row slot of each key, ``-1``
        where it is absent; ``keys`` and the result live on ``xp``."""
        return self.primary.rows_of(keys, xp)

    def key_of(self, row: int) -> int:
        self._check_row(row)
        return int(self._keys[row])

    def read(self, row: int, column: str) -> int:
        if not 0 <= row < self._num_rows:
            self._check_row(row)
        if self._resident_view is not None:
            self._resident_view.fence_column(column)
        try:
            return int(self._columns[column][row])
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def column(self, name: str) -> np.ndarray:
        """The host array for ``name``; under device residency this is
        the lazy stale-host-read fence (a dirty column ships down here
        once before any host code sees it)."""
        if self._resident_view is not None:
            self._resident_view.fence_column(name)
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def host_column(self, name: str) -> np.ndarray:
        """The host array for ``name`` *without* the residency fence.
        Only for writers that touch freshly appended slots (the insert
        install path mirrors those device-side via ``note_appended``);
        anything reading existing rows must use :meth:`column`."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def check_columns(self, names) -> None:
        """Raise :class:`StorageError` unless every name is a column."""
        for name in names:
            if name not in self._columns:
                raise StorageError(f"table {self.name!r} has no column {name!r}")

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._num_rows:
            raise StorageError(
                f"row {row} out of range for table {self.name!r} "
                f"({self._num_rows} rows)"
            )

    # -- copying ------------------------------------------------------------
    def copy(self) -> "Table":
        """Deep copy (used for snapshots and serializability replay)."""
        if self._resident_view is not None:
            self._resident_view.fence()
        clone = Table(self.schema, capacity=max(self._capacity, 1))
        clone._num_rows = self._num_rows
        clone._keys = self._keys.copy()
        clone._columns = {n: a.copy() for n, a in self._columns.items()}
        clone.primary = self.primary.copy()
        clone.secondary = {n: dict(ix) for n, ix in self.secondary.items()}
        clone.ordered = self.ordered.copy() if self.ordered is not None else None
        return clone

    def state_signature(self) -> bytes:
        """A canonical byte representation of live data (rows ordered by
        key), for equality checks in determinism and serializability
        tests.  Canonical ordering matters: two logically identical
        states may have inserted rows in different physical slots."""
        if self._resident_view is not None:
            self._resident_view.fence()
        keys = self._keys[: self._num_rows]
        order = np.argsort(keys, kind="stable")
        parts = [keys[order].tobytes()]
        for name in sorted(self._columns):
            parts.append(self._columns[name][: self._num_rows][order].tobytes())
        return b"".join(parts)
