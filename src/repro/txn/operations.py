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

Under :class:`~repro.core.LTPGEngine` a batch's ops live in one
:class:`OpFrame`: six ``int64`` columns plus a lane column, in the
order they were emitted.  A transaction's :class:`OpColumns` is cut
out of the frame's lane-major layout only when its ``ops`` is read.
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


class OpColumns:
    """A growable columnar buffer of operations.

    Ops live in a flat ``array('q')`` (int64) of row-major 6-field
    groups.  A recording context extends :attr:`buffer` with one op's
    6 values at a time — a single C-level call per op, the cheapest
    append path CPython offers.  Sequence access (``len``/indexing/
    iteration) yields :class:`OpRecord` views for object-oriented
    consumers.
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

    def __repr__(self) -> str:
        return f"OpColumns(n={len(self)})"


class OpFrame:
    """One batch's ops as contiguous columns in emission order — what
    the engine's execute phase hands its collector.

    Op ``i`` belongs to lane ``txn[i]`` (a batch position) and its six
    fields are ``cols[:, i]``.  While a batch executes, each procedure
    group registers its finalized op columns (:meth:`add_group`) and
    each scalar-path lane its recorded buffer (:meth:`add_scalar`);
    :meth:`seal` concatenates them.  Nothing is reordered: the
    collector's passes do not depend on op order, and each lane's ops
    already appear in program order (a group's chunks append in program
    order, a scalar buffer is recorded in it).  The lane-major matrix
    (:attr:`matrix`) — what a transaction's ``ops`` and naive warp
    planning read — is built the first time one of them asks.

    Until sealed every lane reads as empty, which is also how a batch
    whose execute phase raised is left.  A sealed frame is never
    written again: transactions of the batch read their ops out of it
    (:meth:`ops_of`) however many batches later.
    """

    __slots__ = (
        "txn", "cols", "counts", "logic", "_groups", "_scalars",
        "_matrix", "_bounds",
    )

    def __init__(self, num_lanes: int) -> None:
        #: lane of every op (set by :meth:`seal`)
        self.txn = np.empty(0, dtype=np.int64)
        #: the ops' fields, ``(OP_FIELDS, n_ops)`` (set by :meth:`seal`)
        self.cols = np.empty((OP_FIELDS, 0), dtype=np.int64)
        #: ops per lane
        self.counts = np.zeros(num_lanes, dtype=np.int64)
        #: lanes whose procedure rolled itself back
        self.logic = np.zeros(num_lanes, dtype=bool)
        self._groups: list[tuple[np.ndarray, np.ndarray]] = []
        self._scalars: list[tuple[int, array]] = []
        self._matrix: np.ndarray | None = None
        self._bounds: np.ndarray | None = None

    def add_group(
        self,
        lanes: np.ndarray,
        op_lane: np.ndarray,
        cols: np.ndarray,
        aborted: np.ndarray,
    ) -> None:
        """One procedure group's finalized twin output: op ``i`` was
        emitted by the group's lane ``op_lane[i]`` — batch position
        ``lanes[op_lane[i]]`` — and its fields are ``cols[:, i]``;
        ``aborted`` marks the group lanes that logic-aborted."""
        self.counts[lanes] = np.bincount(op_lane, minlength=lanes.size)
        self.logic[lanes[aborted]] = True
        self._groups.append((lanes[op_lane], cols))

    def add_scalar(self, lane: int, ops: OpColumns, logic_aborted: bool) -> None:
        """A lane that ran through its scalar procedure."""
        self.counts[lane] = len(ops)
        self.logic[lane] = logic_aborted
        self._scalars.append((lane, ops.buffer))

    def seal(self) -> None:
        """Concatenate every registered group's columns and scalar
        lane's buffer."""
        parts, scalars = self._groups, self._scalars
        self._groups, self._scalars = [], []
        if scalars:
            lanes = np.fromiter(
                (lane for lane, _ in scalars), dtype=np.int64, count=len(scalars)
            )
            flat = np.frombuffer(b"".join(buf for _, buf in scalars), dtype=np.int64)
            parts.append((
                np.repeat(lanes, self.counts[lanes]),
                flat.reshape(-1, OP_FIELDS).T,
            ))
        if len(parts) == 1:
            self.txn, cols = parts[0]
            self.cols = np.ascontiguousarray(cols)
        elif parts:
            self.txn = np.concatenate([txn for txn, _ in parts])
            self.cols = np.concatenate([cols for _, cols in parts], axis=1)

    @property
    def matrix(self) -> np.ndarray:
        """All ops lane-major, as an ``(n_ops, OP_FIELDS)`` matrix: one
        stable argsort by :attr:`txn` (each lane's ops keep their
        program order), made on first use and cached."""
        if self._matrix is None:
            order = np.argsort(self.txn, kind="stable")
            self._matrix = self.cols.T[order]
            self._bounds = np.zeros(self.counts.size + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.txn, minlength=self.counts.size),
                out=self._bounds[1:],
            )
        return self._matrix

    def ops_of(self, lane: int) -> OpColumns:
        """A copy of one lane's ops."""
        mat, bounds = self.matrix, self._bounds
        return OpColumns.from_flat(mat[bounds[lane]:bounds[lane + 1]].tobytes())
