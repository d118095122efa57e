"""Execution contexts for stored procedures.

Every engine in this reproduction executes procedures *optimistically
buffered*: reads hit the database snapshot (overlaid with the
transaction's own writes), while writes, adds and inserts accumulate in
local sets.  The engine then decides commit order and calls
:func:`apply_local_sets` for the winners.  This matches LTPG's
execution phase ("all operations are conducted using the local read and
write sets, thus avoiding data updates before write-back") and gives the
deterministic baselines a common, undo-free substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError, TransactionAborted, TransactionError
from repro.storage.database import Database
from repro.txn.operations import KEY_COLUMN, OpColumns, OpKind, intern_column
from repro.txn.operations import _COLUMN_IDS  # interner fast path

_READ = int(OpKind.READ)
_WRITE = int(OpKind.WRITE)
_ADD = int(OpKind.ADD)
_INSERT = int(OpKind.INSERT)
_EMPTY_COL = intern_column("")
_KEY_COL = intern_column(KEY_COLUMN)
_COL_ID = _COLUMN_IDS.get


def _snapshot_cell(t, row: int, column: str) -> int:
    """One committed cell of table ``t``.  When the snapshot is on the
    device it takes the one cell, not ``Table.read``'s whole-column
    fence: a scalar lane reads once per op, inside the execute kernel,
    from columns that are dirty every batch."""
    view = t._resident_view
    try:
        if view is None:
            return int(t._columns[column][row])
        return view.read_cell(column, row)
    except KeyError:
        raise StorageError(
            f"table {t.name!r} has no column {column!r}"
        ) from None


@dataclass(slots=True)
class LocalSets:
    """A transaction's buffered effects."""

    #: (table_id, row, column) -> last written value
    writes: dict[tuple[int, int, str], int] = field(default_factory=dict)
    #: (table_id, row, column) -> accumulated delta
    adds: dict[tuple[int, int, str], int] = field(default_factory=dict)
    #: (table_id, key) -> column values
    inserts: dict[tuple[int, int], dict[str, int]] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Device bytes to ship this set back to the CPU for snapshot
        merging (key + value per updated cell, packed rows for inserts)
        — the quantity behind Table V's copy-back cost."""
        cells = len(self.writes) + len(self.adds)
        insert_bytes = sum(8 + 4 * len(v) for v in self.inserts.values())
        return 8 * cells + insert_bytes


class BufferedContext:
    """The context handed to stored procedures.

    Records every operation into a columnar :class:`OpColumns` buffer
    (the conflict log's input; indexable as :class:`OpRecord` views) and
    maintains read-your-own-writes semantics.
    """

    __slots__ = ("_db", "_resolve", "ops", "_emit", "local", "ranges")

    def __init__(self, database: Database):
        self._db = database
        self._resolve = database.resolve
        self.ops = OpColumns()
        # Bound C-level extend of the flat op buffer: recording an op is
        # one call with a 6-tuple (kind, table, row, col_id, value, key).
        self._emit = self.ops.buffer.extend
        self.local = LocalSets()
        #: (table_id, lo, hi) predicates from range reads — consumed by
        #: the engine's phantom detection (range-query extension).
        self.ranges: list[tuple[int, int, int]] = []

    # -- reads -------------------------------------------------------------
    def read(self, table: str, key: int, column: str) -> int:
        """Read ``column`` of the row with primary key ``key``.

        Sees the transaction's own uncommitted inserts (read-your-own-
        writes extends to new rows)."""
        table_id, t = self._resolve(table)
        local = self.local
        if local.inserts:
            own = local.inserts.get((table_id, int(key)))
            if own is not None:
                t.check_columns((column,))
                value = own.get(column)
                if value is None:
                    value = next(
                        c.default for c in t.schema.columns if c.name == column
                    )
                self._emit(
                    (_READ, table_id, -1, intern_column(column), int(value), int(key))
                )
                return int(value)
        # Inlined Table.read (this is the hottest path in the repo; rows
        # from the primary index never need bounds checks).
        row = t.primary.lookup(int(key))
        loc = (table_id, row, column)
        value = local.writes.get(loc)
        if value is None:
            value = _snapshot_cell(t, row, column)
        value += local.adds.get(loc, 0)
        col_id = _COL_ID(column)
        if col_id is None:
            col_id = intern_column(column)
        self._emit((_READ, table_id, row, col_id, value, 0))
        return value

    def read_at(self, table: str, row: int, column: str) -> int:
        """Read by row slot (for rows found via a secondary index)."""
        table_id, t = self._resolve(table)
        return self._slot_read(t, table_id, row, column)

    def _slot_read(self, t, table_id: int, row: int, column: str) -> int:
        loc = (table_id, row, column)
        local = self.local
        value = local.writes.get(loc)
        if value is None:
            if not 0 <= row < t._num_rows:
                t._check_row(row)
            value = _snapshot_cell(t, row, column)
        value += local.adds.get(loc, 0)
        col_id = _COL_ID(column)
        if col_id is None:
            col_id = intern_column(column)
        self._emit((_READ, table_id, row, col_id, int(value), 0))
        return value

    def key_at(self, table: str, row: int) -> int:
        """Read a row's primary key (counts as a read of the row)."""
        table_id, t = self._resolve(table)
        key = t.key_of(row)
        self._emit((_READ, table_id, row, _KEY_COL, int(key), 0))
        return key

    def range_read(
        self, table: str, lo: int, hi: int, column: str, limit: int | None = None
    ) -> list[int]:
        """Read ``column`` of every row with ``lo <= key <= hi`` through
        the table's ordered index (the range-query extension; the table needs
        :meth:`~repro.storage.table.Table.add_ordered_index`).

        The predicate itself is recorded so the engine can abort this
        transaction if an earlier-TID transaction *inserts* into the
        range (phantom protection).
        """
        table_id, t = self._resolve(table)
        pairs = t.range_rows(lo, hi)
        if limit is not None:
            pairs = pairs[:limit]
        self.ranges.append((table_id, int(lo), int(hi)))
        return [self._slot_read(t, table_id, row, column) for _, row in pairs]

    def newest_row(self, table: str, index: str, skey: int) -> int | None:
        """The newest row of ``table`` whose ``index`` column holds
        ``skey`` (``None`` if none does), through its secondary index."""
        t = self._db.table(table)
        try:
            sec = t.secondary[index]
        except KeyError:
            raise TransactionError(
                f"table {table!r} has no secondary index {index!r}"
            ) from None
        return sec.get(skey)

    # -- writes -------------------------------------------------------------
    def write(self, table: str, key: int, column: str, value: int) -> None:
        table_id, t = self._resolve(table)
        row = t.primary.lookup(int(key))
        loc = (table_id, row, column)
        local = self.local
        local.writes[loc] = value = int(value)
        local.adds.pop(loc, None)  # write overrides pending adds
        col_id = _COL_ID(column)
        if col_id is None:
            col_id = intern_column(column)
        self._emit((_WRITE, table_id, row, col_id, value, 0))

    def add(self, table: str, key: int, column: str, delta: int) -> None:
        """Commutative ``column += delta`` (delayed-update eligible)."""
        table_id, t = self._resolve(table)
        row = t.primary.lookup(int(key))
        loc = (table_id, row, column)
        adds = self.local.adds
        adds[loc] = adds.get(loc, 0) + (delta := int(delta))
        col_id = _COL_ID(column)
        if col_id is None:
            col_id = intern_column(column)
        self._emit((_ADD, table_id, row, col_id, delta, 0))

    def insert(self, table: str, key: int, values: dict[str, int]) -> None:
        table_id, t = self._resolve(table)
        if t.get_row(int(key)) is not None:
            # Unique violation against the snapshot: deterministic
            # logic-level rollback (not a concurrency-control abort).
            raise TransactionAborted(f"duplicate key {key} in {table!r}")
        ikey = (table_id, int(key))
        if ikey in self.local.inserts:
            raise TransactionError(
                f"transaction inserts key {key} into {table!r} twice"
            )
        self.local.inserts[ikey] = {c: int(v) for c, v in values.items()}
        self._emit((_INSERT, table_id, -1, _EMPTY_COL, 0, int(key)))

    # -- control -------------------------------------------------------------
    def abort(self, reason: str = "user abort") -> None:
        """Logic-initiated rollback (e.g. TPC-C's 1% NewOrder abort)."""
        raise TransactionAborted(reason)


def apply_local_sets(database: Database, local: LocalSets) -> None:
    """Install one committed transaction's buffered effects.

    Insert keys that already exist are ignored (the conflict-detection
    phase is responsible for ensuring a unique winner; replay helpers
    reuse this function after the winner has been picked).
    """
    for (table_id, row, column), value in local.writes.items():
        database.table_by_id(table_id).write(row, column, value)
    for (table_id, row, column), delta in local.adds.items():
        database.table_by_id(table_id).add(row, column, delta)
    for (table_id, key), values in local.inserts.items():
        table = database.table_by_id(table_id)
        if table.get_row(key) is None:
            table.insert(key, values)

