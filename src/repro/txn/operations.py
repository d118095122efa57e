"""Operation records: the uniform language between stored procedures and
concurrency-control engines.

A stored procedure executes against a context (:mod:`repro.txn.context`)
and leaves behind a stream of operations — reads, full-value writes,
commutative adds, and inserts.  Every engine in this repo (LTPG and all
baselines) consumes the same records, which is what makes the
cross-system benchmarks apples-to-apples.

Storage layout
--------------
Operations are recorded *columnar*: :class:`OpColumns` keeps one typed
field per op attribute (kind / table / row / column-id / value / key)
so the LTPG engine can consume a whole batch with NumPy array
operations instead of walking Python objects.  Column names are
interned process-wide (:func:`intern_column`) so the column field is an
``int64`` like everything else.  :class:`OpRecord` remains the
per-operation view — indexing or iterating an :class:`OpColumns`
materializes records on demand, which keeps the baselines and tests
that think in objects working unchanged.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class OpKind(enum.IntEnum):
    """The four operation types LTPG decomposes transactions into.

    ``ADD`` is a commutative read-modify-write (``col += delta``); it is
    the operation class eligible for the paper's delayed-update strategy.
    """

    READ = 0
    WRITE = 1
    ADD = 2
    INSERT = 3


@dataclass(frozen=True)
class OpRecord:
    """One executed operation.

    ``row`` is the table row slot for READ/WRITE/ADD; for INSERT it is
    ``-1`` and ``key`` carries the new primary key.  ``value`` is the
    value read, the value written, or the delta added.
    """

    kind: OpKind
    table_id: int
    row: int
    column: str
    value: int
    key: int = 0

    def item(self) -> tuple[int, int]:
        """The data-item identity used for row-level conflict detection."""
        return (self.table_id, self.row)


#: Number of distinct op kinds (used to size per-type warp queues).
NUM_OP_KINDS = len(OpKind)

# -- column interning --------------------------------------------------------
# Column names are few (schemas are small) and live for the process, so a
# global intern table keeps the per-op field numeric everywhere.
_COLUMN_IDS: dict[str, int] = {}
_COLUMN_NAMES: list[str] = []


def intern_column(name: str) -> int:
    """Process-wide id of a column name (stable for the process life)."""
    col_id = _COLUMN_IDS.get(name)
    if col_id is None:
        col_id = len(_COLUMN_NAMES)
        _COLUMN_IDS[name] = col_id
        _COLUMN_NAMES.append(name)
    return col_id


def column_name(col_id: int) -> str:
    """Inverse of :func:`intern_column`."""
    return _COLUMN_NAMES[col_id]


def column_interner_size() -> int:
    """How many distinct column names have been interned so far."""
    return len(_COLUMN_NAMES)


# The empty column (inserts) and the key pseudo-column are always present.
_EMPTY_COLUMN_ID = intern_column("")
KEY_COLUMN = "__key__"
_KEY_COLUMN_ID = intern_column(KEY_COLUMN)

#: Fields per op row in :class:`OpColumns` (kind, table, row, col, value, key).
OP_FIELDS = 6

#: One op row as an opaque item.
_OP_ROW = np.dtype((np.void, OP_FIELDS * 8))


class OpColumns:
    """A growable columnar buffer of operations.

    Appends extend a flat ``array('q')`` (int64) of row-major 6-field
    groups — a single C-level call per op, the cheapest append path
    CPython offers.  Recording hot paths may extend :attr:`buffer`
    directly (6 values at a time); the typed ``(n, 6)`` int64 matrix is
    materialized per access (one memcpy of the buffer), so there is no
    cache to invalidate.  Sequence access (``len``/indexing/iteration)
    yields :class:`OpRecord` views for object-oriented consumers.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = array("q")

    @classmethod
    def from_flat(cls, raw: bytes) -> "OpColumns":
        """Wrap a row-major int64 byte string of 6-field op rows (the
        batched executor's per-transaction slice) — one memcpy."""
        ops = cls()
        ops._buf.frombytes(raw)
        return ops

    # -- recording --------------------------------------------------------
    def append_op(
        self,
        kind: int,
        table_id: int,
        row: int,
        col_id: int,
        value: int,
        key: int = 0,
    ) -> None:
        self._buf.extend((kind, table_id, row, col_id, value, key))

    @property
    def buffer(self) -> array:
        """The flat int64 row-major buffer (engine fast path — bulk
        concatenation across transactions is one memcpy each; do not
        mutate)."""
        return self._buf

    @property
    def raw(self) -> list[tuple[int, int, int, int, int, int]]:
        """The ops as fixed-width tuple rows (copies; test helper)."""
        b = self._buf
        return [tuple(b[i : i + OP_FIELDS]) for i in range(0, len(b), OP_FIELDS)]

    # -- columnar views ---------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """All ops as an ``(n, OP_FIELDS)`` int64 matrix (copies out of
        the append buffer, so later appends never race a live view)."""
        n = len(self._buf) // OP_FIELDS
        return np.frombuffer(self._buf.tobytes(), dtype=np.int64).reshape(
            n, OP_FIELDS
        )

    @property
    def kinds(self) -> np.ndarray:
        return self.matrix[:, 0]

    @property
    def tables(self) -> np.ndarray:
        return self.matrix[:, 1]

    @property
    def rows(self) -> np.ndarray:
        return self.matrix[:, 2]

    @property
    def columns(self) -> np.ndarray:
        """Interned column ids (decode with :func:`column_name`)."""
        return self.matrix[:, 3]

    @property
    def values(self) -> np.ndarray:
        return self.matrix[:, 4]

    @property
    def keys(self) -> np.ndarray:
        return self.matrix[:, 5]

    # -- OpRecord compatibility ------------------------------------------
    def _record(self, index: int) -> OpRecord:
        base = index * OP_FIELDS
        kind, table_id, r, col_id, value, key = self._buf[base : base + OP_FIELDS]
        return OpRecord(
            OpKind(kind), table_id, r, _COLUMN_NAMES[col_id], value, key=key
        )

    def __len__(self) -> int:
        return len(self._buf) // OP_FIELDS

    def __bool__(self) -> bool:
        return bool(self._buf)

    def __iter__(self) -> Iterator[OpRecord]:
        return map(self._record, range(len(self)))

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("op index out of range")
        return self._record(index)

    def to_records(self) -> list[OpRecord]:
        """Materialize every op as an :class:`OpRecord` (test helper)."""
        return [self._record(i) for i in range(len(self))]

    def __repr__(self) -> str:
        return f"OpColumns(n={len(self)})"


class OpFrame:
    """One batch's ops as a single lane-major ``(n_ops, OP_FIELDS)``
    matrix — what the engine's execute phase hands its collector.

    Lanes are batch positions.  While a batch executes, each procedure
    group registers its lane-sorted op matrix (:meth:`add_group`) and
    each scalar-path lane its recorded buffer (:meth:`add_scalar`);
    :meth:`seal` lays them out in batch order.  Until then every lane
    reads as empty, which is also how a batch whose execute phase
    raised is left.  A sealed frame is never written again:
    transactions of the batch read their ops out of it
    (:meth:`ops_of`) however many batches later.
    """

    __slots__ = ("mat", "counts", "logic", "_bounds", "_groups", "_scalars")

    def __init__(self, num_lanes: int) -> None:
        #: all ops of the batch, lane-major (set by :meth:`seal`)
        self.mat = np.empty((0, OP_FIELDS), dtype=np.int64)
        #: ops per lane
        self.counts = np.zeros(num_lanes, dtype=np.int64)
        #: lanes whose procedure rolled itself back
        self.logic = np.zeros(num_lanes, dtype=bool)
        self._bounds = np.zeros(num_lanes + 1, dtype=np.int64)
        self._groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._scalars: list[tuple[int, array]] = []

    def add_group(
        self,
        lanes: np.ndarray,
        mat: np.ndarray,
        counts: np.ndarray,
        aborted: np.ndarray,
    ) -> None:
        """One procedure group's finalized twin output: ``mat`` holds
        the ops of ``lanes`` (ascending batch positions) lane by lane,
        ``counts[i]`` of them for ``lanes[i]``; ``aborted`` marks the
        group lanes that logic-aborted."""
        self.counts[lanes] = counts
        self.logic[lanes[aborted]] = True
        self._groups.append((lanes, mat, counts))

    def add_scalar(self, lane: int, ops: OpColumns, logic_aborted: bool) -> None:
        """A lane that ran through its scalar procedure."""
        self.counts[lane] = len(ops)
        self.logic[lane] = logic_aborted
        self._scalars.append((lane, ops.buffer))

    def seal(self) -> None:
        """Lay every registered lane's rows out in batch order."""
        groups, scalars = self._groups, self._scalars
        self._groups, self._scalars = [], []
        bounds = self._bounds
        np.cumsum(self.counts, out=bounds[1:])
        if len(groups) == 1 and not scalars and groups[0][0].size == self.counts.size:
            # one group covering the batch is already in batch order
            self.mat = groups[0][1]
            return
        mat = np.empty((int(bounds[-1]), OP_FIELDS), dtype=np.int64)
        # whole rows move as single items: half the cost of a 2-D store
        rows = mat.view(_OP_ROW).reshape(-1)
        for lanes, g_mat, g_counts in groups:
            # row j of the group's lane i goes to bounds[lanes[i]] + j
            shift = bounds[lanes] - (np.cumsum(g_counts) - g_counts)
            rows[np.repeat(shift, g_counts) + np.arange(g_mat.shape[0])] = (
                np.ascontiguousarray(g_mat).view(_OP_ROW).reshape(-1)
            )
        for lane, buf in scalars:
            mat[bounds[lane]:bounds[lane + 1]] = np.frombuffer(
                buf, dtype=np.int64
            ).reshape(-1, OP_FIELDS)
        self.mat = mat

    def ops_of(self, lane: int) -> OpColumns:
        """A copy of one lane's ops."""
        bounds = self._bounds
        return OpColumns.from_flat(
            self.mat[bounds[lane]:bounds[lane + 1]].tobytes()
        )
