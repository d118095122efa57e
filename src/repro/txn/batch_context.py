"""Batched execution context: one context per procedure *group*.

Scalar execution runs every transaction through its own
:class:`~repro.txn.context.BufferedContext`; the batched executor
(``LTPGConfig.batched_exec``, the default) instead groups a batch by
procedure name and hands each group a single :class:`BatchedContext`.
A vectorized ``BatchProcedure`` then reads snapshot columns with NumPy
gathers, computes all lanes' effects at once, and emits op/write-set
*chunks* into columnar arrays — the host analog of the paper's adaptive
warp division (§IV-C), where sub-transactions of one type share a warp
so the same instruction stream runs data-parallel across lanes.

Byte-identity with the scalar path is preserved structurally:

* every emitted op carries its lane, and chunks append in program
  order, so within a lane emission order *is* the order a
  per-transaction execution would have recorded:
  :meth:`BatchedContext.finalize` hands the ops on as emitted, and
  whoever needs them lane-major (a transaction's ``ops``) gets them
  from one stable sort by lane;
* lanes that hit a case the vectorized code cannot express (duplicate
  keys needing read-your-own-writes, etc.) are *fallback* lanes — their
  chunk contributions are discarded and the engine re-runs them through
  the scalar procedure, which is identical by construction;
* logic aborts are masks: a dead lane keeps the ops it emitted before
  the abort and contributes empty local sets, exactly like the scalar
  ``TransactionAborted`` path.

The group's resolved effects land in :class:`GroupLocals` — three
:class:`Cells` records and one :class:`InsertRows` (the columnar
``LocalSets``) that the engine's write-back phase installs with masked
grouped scatters instead of per-transaction ``apply_local_sets`` calls.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np

from repro.errors import TransactionError
from repro.storage.database import Database
from repro.txn.operations import (
    KEY_COLUMN,
    OP_FIELDS,
    OpKind,
    column_name,
    intern_column,
)
from repro.txn.operations import _COLUMN_IDS  # interner fast path
from repro.xp import HOST, ArrayBackend, Rows, segment_sum, sorted_runs
from repro.xp.rows import run_starts

_READ = int(OpKind.READ)
_WRITE = int(OpKind.WRITE)
_ADD = int(OpKind.ADD)
_INSERT = int(OpKind.INSERT)
_STEP_KINDS = {"read": _READ, "write": _WRITE, "add": _ADD}
_EMPTY_COL = intern_column("")
_KEY_COL = intern_column(KEY_COLUMN)


class ParamColumns:
    """A group's transaction parameters as padded int64 columns.

    ``padded[lane, i]`` is parameter ``i`` of lane ``lane`` (0 past the
    lane's actual parameter count); ``lengths[lane]`` is that count.
    """

    __slots__ = ("padded", "lengths", "n", "xp")

    def __init__(self, params_list: list[tuple], xp: ArrayBackend | None = None):
        self.xp = xp if xp is not None else HOST
        self.n = len(params_list)
        lengths = np.fromiter(
            map(len, params_list), dtype=np.int64, count=self.n
        )
        max_len = int(lengths.max()) if self.n else 0
        padded = np.zeros((self.n, max_len), dtype=np.int64)
        if max_len:
            flat = np.fromiter(
                chain.from_iterable(params_list),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
            padded[np.arange(max_len) < lengths[:, None]] = flat
        # the per-batch parameter shipping: one H2D of the padded
        # parameter matrix per group (identity on the host backend)
        self.lengths = self.xp.from_host(lengths)
        self.padded = self.xp.from_host(padded)

    def column(self, i: int) -> np.ndarray:
        """Parameter ``i`` across all lanes (0 where absent)."""
        if i >= self.padded.shape[1]:
            return self.xp.zeros(self.n, dtype=np.int64)
        return self.padded[:, i]


class Cells(Rows):
    """Buffered cell effects: lane ``txn`` sets (or adds) ``val`` at
    column ``col`` (interned id) of ``(table, row)``."""

    FIELDS = ("txn", "table", "row", "col", "val")
    __slots__ = FIELDS
    txn: np.ndarray
    table: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray


class InsertRows(Rows):
    """Buffered inserts: lane ``txn``'s ``seq``-th insert puts ``key``
    into ``table``; its payload is row ``pos`` of payload chunk
    ``chunk`` (:attr:`GroupLocals.payloads`)."""

    FIELDS = ("txn", "seq", "table", "key", "chunk", "pos")
    __slots__ = FIELDS
    txn: np.ndarray
    seq: np.ndarray
    table: np.ndarray
    key: np.ndarray
    chunk: np.ndarray
    pos: np.ndarray

    def install_order(self, commit: np.ndarray) -> np.ndarray:
        """The committed inserts in the order they claim slots: by lane
        (admission order) — appended rows take the physical slots the
        scalar write-back would give them, and slot order feeds the
        secondary/ordered indexes later batches observe — then by
        emission within the lane."""
        order, _ = sorted_runs(self.txn, self.seq)
        return order[commit[self.txn[order]]]


#: The three cell sets of a :class:`GroupLocals`.
_CELL_SETS = ("writes", "adds", "delayed")


class GroupLocals:
    """One group's resolved buffered effects, columnar.

    ``writes`` / ``adds`` are :class:`Cells` (the columnar
    ``LocalSets``); ``delayed`` carries the extracted delayed-column
    deltas.  Inserts are columnar too — an :class:`InsertRows` whose
    ``(chunk, pos)`` locate each row's values in ``payloads``, a list
    of ``(names, values_matrix)`` chunks — and only materialize per
    table at write-back.  ``nbytes_by_txn`` and ``delayed_count_by_txn``
    reproduce the scalar accounting exactly.

    Lanes that ran through their scalar procedure join the same
    records: :meth:`add_scalar_locals` buffers each lane's ``LocalSets``
    as rows and :meth:`seal` turns all of them into columns at once.
    """

    __slots__ = (
        *_CELL_SETS, "inserts", "payloads",
        "nbytes_by_txn", "delayed_count_by_txn",
        "_cells", "_ins_rows", "_payloads",
    )

    def __init__(self, num_txns: int):
        self.writes = self.adds = self.delayed = Cells.empty()
        self.inserts = InsertRows.empty()
        self.payloads: list[tuple] = []
        self.nbytes_by_txn = np.zeros(num_txns, dtype=np.int64)
        self.delayed_count_by_txn = np.zeros(num_txns, dtype=np.int64)
        # Scalar-executed lanes, buffered row-major until :meth:`seal`:
        # one Cells row per effect, one InsertRows row per insert, and
        # the insert payloads per distinct column tuple.
        self._cells = {name: array("q") for name in _CELL_SETS}
        self._ins_rows = array("q")
        self._payloads: dict[tuple, list] = {}

    # -- batch-wide accumulation ------------------------------------------
    @staticmethod
    def merge(parts: list["GroupLocals"], num_txns: int) -> "GroupLocals":
        out = GroupLocals(num_txns)
        for name in _CELL_SETS:
            setattr(out, name, Cells.concat([getattr(p, name) for p in parts]))
        inserts = []
        for p in parts:
            # payload chunks renumber as the parts' lists join
            renumbered = p.inserts.chunk + len(out.payloads)
            inserts.append(p.inserts.replace(chunk=renumbered))
            out.payloads.extend(p.payloads)
            out.nbytes_by_txn += p.nbytes_by_txn
            out.delayed_count_by_txn += p.delayed_count_by_txn
        out.inserts = InsertRows.concat(inserts)
        return out

    def rekeyed(self, idx_arr: np.ndarray, num_txns: int) -> "GroupLocals":
        """Re-key lane-indexed locals to batch positions: ``idx_arr``
        maps lane -> batch index (the group's transaction positions)."""
        out = GroupLocals(num_txns)
        for name in (*_CELL_SETS, "inserts"):
            rows = getattr(self, name)
            setattr(out, name, rows.replace(txn=idx_arr[rows.txn]))
        out.payloads = self.payloads
        out.nbytes_by_txn[idx_arr] = self.nbytes_by_txn
        out.delayed_count_by_txn[idx_arr] = self.delayed_count_by_txn
        return out

    def add_scalar_locals(self, txn_idx: int, local, delayed_columns) -> None:
        """Buffer one scalar-executed transaction's ``LocalSets`` as
        rows (its adds on ``delayed_columns`` — ``(table_id, column)``
        pairs — as delayed deltas); :meth:`seal` makes them columns.
        Nothing is converted per lane: that would copy every column
        once per lane and give every inserted row a payload chunk of
        its own for the write-back to walk."""
        col_id = _COLUMN_IDS.__getitem__  # recording the ops interned them
        emit_w = self._cells["writes"].extend
        for (t, row, col), val in local.writes.items():
            emit_w((txn_idx, t, row, col_id(col), val))
        emit_a, emit_d = self._cells["adds"].extend, self._cells["delayed"].extend
        delayed = 0
        for (t, row, col), val in local.adds.items():
            if (t, col) in delayed_columns:
                emit_d((txn_idx, t, row, col_id(col), val))
                delayed += 1
            else:
                emit_a((txn_idx, t, row, col_id(col), val))
        nbytes = 8 * (len(local.writes) + len(local.adds) - delayed)
        payloads = self._payloads
        for seq, ((t, key), values) in enumerate(local.inserts.items()):
            names = tuple(values)
            chunk = payloads.get(names)
            if chunk is None:
                # [chunk id, rows so far, their values row-major]
                chunk = payloads[names] = [len(payloads), 0, array("q")]
            self._ins_rows.extend((txn_idx, seq, t, key, chunk[0], chunk[1]))
            chunk[1] += 1
            chunk[2].extend(values.values())
            nbytes += 8 + 4 * len(names)
        self.nbytes_by_txn[txn_idx] += nbytes
        self.delayed_count_by_txn[txn_idx] += delayed

    def seal(self) -> None:
        """Append the rows :meth:`add_scalar_locals` buffered to the
        records — one conversion per record however many lanes there
        were, and one payload chunk per distinct insert column tuple."""
        # The buffers are handed over to the arrays made from them (an
        # exported array('q') cannot be cleared), so start fresh ones.
        cells, self._cells = self._cells, {name: array("q") for name in _CELL_SETS}
        ins_rows, self._ins_rows = self._ins_rows, array("q")
        payloads, self._payloads = self._payloads, {}

        def columns(buf: array, width: int) -> np.ndarray:
            rows = np.frombuffer(buf, dtype=np.int64).reshape(-1, width)
            return np.ascontiguousarray(rows.T)

        for name, buf in cells.items():
            if buf:
                rows = Cells(*columns(buf, 5))
                setattr(self, name, Cells.concat([getattr(self, name), rows]))
        if ins_rows:
            rows = InsertRows(*columns(ins_rows, 6))
            rows = rows.replace(chunk=rows.chunk + len(self.payloads))
            self.inserts = InsertRows.concat([self.inserts, rows])
            self.payloads.extend(
                (names, np.frombuffer(buf, dtype=np.int64).reshape(count, len(names)))
                for names, (_, count, buf) in payloads.items()
            )


class _Steps:
    """A :meth:`BatchedContext.emit_steps` chunk: ``steps[s]`` holds
    step ``s``'s op fields (each scalar or one value per pair), and
    ``keep`` the flat indices of the ``(pair, step)`` slots reached
    (``None``: all of them).  :meth:`write` lays it out pair-major
    straight into the finalize block, so no step is copied twice."""

    __slots__ = ("lanes", "steps", "keep")

    def __init__(self, lanes: np.ndarray, steps: list[tuple], keep):
        self.lanes = lanes
        self.steps = steps
        self.keep = keep

    @property
    def size(self) -> int:
        if self.keep is None:
            return self.lanes.size * len(self.steps)
        return self.keep.size

    def write(self, out: np.ndarray, xp: ArrayBackend) -> None:
        """Fill ``out``, a ``(1 + OP_FIELDS, size)`` view, field by
        field: a field's scalars tiled in one pass, then one strided
        pass per step that has an array."""
        n, k = self.lanes.size, len(self.steps)
        full = out
        if self.keep is not None:
            full = xp.empty((1 + OP_FIELDS, n * k), dtype=np.int64)
        # each row is contiguous, so its (n, k) reshape is a view
        full[0].reshape(n, k)[:] = self.lanes[:, None]
        for f, values in enumerate(zip(*self.steps), 1):
            row = full[f]
            is_array = [isinstance(v, np.ndarray) for v in values]
            if not all(is_array):
                _tile(row, [0 if a else v for a, v in zip(is_array, values)])
            for s, v in enumerate(values):
                if is_array[s]:
                    row[s::k] = v
        if self.keep is not None:
            out[:] = full[:, self.keep]


def _tile(row: np.ndarray, pattern: list[int]) -> None:
    """``row[:] = pattern`` repeated, by doubling copies — a broadcast
    assignment of a short pattern loops once per repetition."""
    row[:len(pattern)] = pattern
    done = len(pattern)
    while done < row.size:
        step = min(done, row.size - done)
        row[done:done + step] = row[:step]
        done += step


class BatchedContext:
    """The vectorized execution context handed to a ``BatchProcedure``.

    Lanes are the group's transactions, in batch order.  All emission
    methods take a ``lanes`` index array and aligned value arrays; they
    must only be called with lanes that are still :attr:`active`.
    """

    def __init__(
        self,
        database: Database,
        params_list: list[tuple],
        delayed_mask_fn=None,
        xp: ArrayBackend | None = None,
        residency=None,
    ):
        self._db = database
        #: the array backend all emission/finalize math runs on
        self.xp = xp if xp is not None else HOST
        #: the engine's device-resident snapshot
        #: (:class:`~repro.xp.residency.ResidencyManager`) when ``xp``
        #: is a device; ``None`` on the host
        self._residency = residency
        self.n = len(params_list)
        self.params = ParamColumns(params_list, xp=self.xp)
        #: lanes not yet logic-aborted and not sent to fallback
        self.active = np.ones(self.n, dtype=bool)
        #: lanes that logic-aborted (keep emitted ops, empty locals)
        self.aborted = np.zeros(self.n, dtype=bool)
        #: lanes to re-run through the scalar procedure
        self.fallback = np.zeros(self.n, dtype=bool)
        self._delayed_mask_fn = delayed_mask_fn
        # op chunks: (lanes, kind, table, rows, col, values, keys), the
        # scalar fields broadcast at finalize, or an emit_steps
        # :class:`_Steps`, laid out at finalize.  Chunks append in program
        # order, so each lane's ops appear across chunks exactly in the
        # order a per-transaction execution would record them — nothing
        # downstream needs them reordered.
        self._chunks: list[tuple] = []
        # insert payloads: (lanes, table_id, keys, names, values_matrix)
        # — value columns stay vectorized until finalize.
        self._ins_chunks: list[tuple] = []
        # range predicates: (lane, table_id, lo, hi) in emission order
        self._range_chunks: list[tuple] = []

    # -- lane management ----------------------------------------------------
    # The active/aborted/fallback masks are *host* control state: twins
    # index them freely, and the engine consults them after the phase.
    # Lane index vectors handed to twins are device-resident.
    def all_lanes(self) -> np.ndarray:
        return self.xp.arange(self.n, dtype=np.int64)

    def active_lanes(self) -> np.ndarray:
        return self.xp.flatnonzero(self.active)

    def logic_abort(self, lanes: np.ndarray) -> None:
        """Deterministic logic abort: the lanes keep their emitted ops,
        contribute empty local sets, and stop executing."""
        lanes = self.xp.to_host(lanes)
        self.aborted[lanes] = True
        self.active[lanes] = False

    def fall_back(self, lanes: np.ndarray) -> None:
        """Send lanes to the scalar procedure: everything they emitted
        is discarded and the engine re-runs them one at a time."""
        lanes = self.xp.to_host(lanes)
        self.fallback[lanes] = True
        self.active[lanes] = False

    def active_mask(self) -> np.ndarray:
        """The :attr:`active` mask as a device array (one H2D per call —
        twins re-ship it after host-side abort/fallback updates when a
        loop needs data-dependent lane selection on the device)."""
        return self.xp.from_host(self.active)

    # -- snapshot access -----------------------------------------------------
    def resolve(self, table: str):
        """(table_id, table) — same lookup the scalar context uses."""
        return self._db.resolve(table)

    def _column(self, t, column: str) -> np.ndarray:
        """Snapshot column, two ways: on the host the table column
        itself (zero copies); on a device the resident column from the
        engine's :class:`~repro.xp.residency.DeviceTableView` — uploaded
        once for the whole session, carrying every committed write-back
        since."""
        if not self.xp.is_device:
            return t._keys if column is None else t.column(column)
        return self._residency.device_column(t, column)

    def column_of(self, table: str, column: str | None) -> np.ndarray:
        """Snapshot column as a backend array (device-resident and
        cached under a device backend); ``None`` gives the key column.
        Twins use this for raw gathers that emit no op (pre-resolution
        probes)."""
        _, t = self._db.resolve(table)
        return self._column(t, column)

    def dense_limit(self, table: str) -> int:
        """Keys below this resolve to their own row slot (twins use it
        to decide when a vectorized range is safe without index descent)."""
        return self._db.table(table)._dense_limit

    def rows_for_keys(
        self, table: str, lanes: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve primary keys to row slots.

        Returns ``(rows, found)`` aligned with ``lanes``; lanes whose
        key is missing are logic-aborted (the scalar ``KeyNotFound``
        path) and carry ``found=False`` / ``rows=-1``.
        """
        _, t = self._db.resolve(table)
        rows = t.rows_of_keys(self.xp.asarray(keys, dtype=np.int64), self.xp)
        found = rows >= 0
        missing = ~found
        if missing.any():
            self.logic_abort(lanes[missing])
        return rows, found

    def rows_for_flat_keys(
        self,
        table: str,
        lanes: np.ndarray,
        counts: np.ndarray,
        flat_keys: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a lane-major variable-length key list (``counts[i]``
        keys for lane ``i``).

        Lanes with any missing key are sent to :meth:`fall_back` — the
        scalar re-run reproduces the exact mid-sequence abort — so the
        vectorized caller only ever proceeds with fully-resolved lanes.
        Returns ``(keep, flat_rows)``: the per-lane keep mask and the
        row slots of the kept lanes' keys (still lane-major).
        """
        xp = self.xp
        _, t = self._db.resolve(table)
        rows = t.rows_of_keys(xp.asarray(flat_keys, dtype=np.int64), xp)
        missing = rows < 0
        bad = np.zeros(lanes.size, dtype=bool)
        if missing.any():
            np.logical_or.at(
                bad, np.repeat(np.arange(lanes.size), counts), missing
            )
            self.fall_back(lanes[bad])
        keep = ~bad
        return keep, rows[xp.repeat(keep, counts)]

    # -- op emission ---------------------------------------------------------
    def _emit(
        self, lanes, kind, table_id, rows, col_id, values, keys=0
    ) -> None:
        self._chunks.append((lanes, kind, table_id, rows, col_id, values, keys))

    def read_rows(
        self, table: str, lanes: np.ndarray, rows: np.ndarray, column: str
    ) -> np.ndarray:
        """Gather-read ``column`` at ``rows`` (snapshot values; callers
        guarantee no read-your-own-writes overlay applies — lanes that
        need one must :meth:`fall_back`)."""
        if lanes.size == 0:
            return np.empty(0, dtype=np.int64)
        table_id, t = self._db.resolve(table)
        values = self._column(t, column)[rows]
        self._emit(lanes, _READ, table_id, rows, intern_column(column), values)
        return values

    def read_keys(
        self, table: str, lanes: np.ndarray, keys: np.ndarray, column: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`rows_for_keys` + :meth:`read_rows` in one call.

        Returns ``(values, rows, found)``; values/rows are compacted to
        the found lanes (``lanes[found]``)."""
        rows, found = self.rows_for_keys(table, lanes, keys)
        ok_lanes = lanes[found]
        ok_rows = rows[found]
        return self.read_rows(table, ok_lanes, ok_rows, column), ok_rows, found

    def read_block(
        self,
        table: str,
        lanes: np.ndarray,
        rows_per_lane: np.ndarray,
        column: str,
    ) -> np.ndarray:
        """Emit ``k`` consecutive reads per lane in one chunk.

        ``rows_per_lane`` is ``(len(lanes), k)`` row slots; returns the
        gathered values in the same shape (scan fast path)."""
        if lanes.size == 0:
            return np.empty((0, 0), dtype=np.int64)
        table_id, t = self._db.resolve(table)
        k = rows_per_lane.shape[1]
        flat_rows = rows_per_lane.reshape(-1)
        values = self._column(t, column)[flat_rows]
        self._emit(
            self.xp.repeat(lanes, k), _READ, table_id, flat_rows,
            intern_column(column), values,
        )
        return values.reshape(lanes.size, k)

    def read_var(
        self,
        table: str,
        lanes: np.ndarray,
        counts: np.ndarray,
        flat_rows: np.ndarray,
        column: str,
    ) -> np.ndarray:
        """Variable-per-lane gather: lane ``i`` reads ``counts[i]``
        rows, given lane-major in ``flat_rows``.  Returns the flat
        gathered values."""
        if lanes.size == 0:
            return np.empty(0, dtype=np.int64)
        table_id, t = self._db.resolve(table)
        values = self._column(t, column)[flat_rows]
        self._emit(
            self.xp.repeat(lanes, counts), _READ, table_id, flat_rows,
            intern_column(column), values,
        )
        return values

    def key_at_rows(
        self, table: str, lanes: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Read each row's primary key (the scalar ``key_at``)."""
        if lanes.size == 0:
            return np.empty(0, dtype=np.int64)
        table_id, t = self._db.resolve(table)
        keys = self._column(t, None)[rows]
        self._emit(lanes, _READ, table_id, rows, _KEY_COL, keys)
        return keys

    def write(
        self, table: str, lanes: np.ndarray, rows: np.ndarray, column: str, values
    ) -> None:
        if lanes.size == 0:
            return
        table_id, _ = self._db.resolve(table)
        self._emit(lanes, _WRITE, table_id, rows, intern_column(column), values)

    def add(
        self, table: str, lanes: np.ndarray, rows: np.ndarray, column: str, deltas
    ) -> None:
        if lanes.size == 0:
            return
        table_id, _ = self._db.resolve(table)
        self._emit(lanes, _ADD, table_id, rows, intern_column(column), deltas)

    def insert(
        self,
        table: str,
        lanes: np.ndarray,
        keys: np.ndarray,
        values: dict[str, np.ndarray],
    ) -> np.ndarray:
        """Vectorized insert.  Lanes whose key already exists in the
        snapshot logic-abort (the scalar ``TransactionAborted`` path);
        returns the mask of lanes that inserted."""
        if lanes.size == 0:
            return np.zeros(0, dtype=bool)
        xp = self.xp
        table_id, t = self._db.resolve(table)
        keys = xp.asarray(keys, dtype=np.int64)
        exists = t.rows_of_keys(keys, xp) >= 0
        if exists.any():
            self.logic_abort(lanes[exists])
        ok = ~exists
        ok_lanes, ok_keys = self._buffer_inserts(table_id, lanes, keys, values, ok)
        if ok_lanes.size:
            self._emit(ok_lanes, _INSERT, table_id, -1, _EMPTY_COL, 0, ok_keys)
        return ok

    def _buffer_inserts(self, table_id, lanes, keys, values, sel):
        """Buffer the payload rows ``sel`` of an insert whose ``keys``
        and ``values`` align with ``lanes`` as one insert chunk; returns
        the selected ``(lanes, keys)``."""
        xp = self.xp
        lanes, keys = lanes[sel], keys[sel]
        if lanes.size:
            names = tuple(values)
            cols = xp.stack(
                [xp.broadcast_to(xp.asarray(values[c], dtype=np.int64), sel.shape)[sel]
                 for c in names],
                axis=1,
            ) if names else np.zeros((lanes.size, 0), dtype=np.int64)
            self._ins_chunks.append((lanes, table_id, keys, names, cols))
        return lanes, keys

    def emit_steps(
        self, lanes: np.ndarray, reached: np.ndarray, steps: tuple
    ) -> None:
        """Emit up to ``k = len(steps)`` consecutive ops per *pair* in
        one chunk — :meth:`read_block` generalised to any op kind and to
        pairs that stop early.

        Pair ``i`` belongs to lane ``lanes[i]`` (a lane may own several
        pairs, in program order) and emits the first ``reached[i]``
        steps.  A step is an emission method's name and its arguments
        less ``lanes``, aligned with the pairs (rows and values may be
        scalars, an insert's keys may not):
        ``("read", table, rows, column, values)`` — the values the twin
        gathered — ``("write" | "add", table, rows, column, values)``
        and ``("insert", table, keys, payload)``.  The ops land
        pair-major, so each lane's ops keep its program order, and
        :meth:`finalize` writes each step once, straight into the
        group's op block; the payloads of the pairs that reach an
        insert step become one insert chunk.  Nothing is probed: the
        caller resolved the keys and chose ``reached`` from them."""
        xp = self.xp
        k = len(steps)
        if lanes.size == 0 or not k:
            return
        fields = []
        for s, (kind, table, *args) in enumerate(steps):
            table_id, _ = self._db.resolve(table)
            if kind == "insert":
                keys, payload = args
                self._buffer_inserts(table_id, lanes, keys, payload, reached > s)
                fields.append((_INSERT, table_id, -1, _EMPTY_COL, 0, keys))
            else:
                rows, column, values = args
                fields.append((
                    _STEP_KINDS[kind], table_id, rows, intern_column(column), values, 0
                ))
        keep = (xp.arange(k, dtype=np.int64) < reached[:, None]).reshape(-1)
        self._chunks.append(
            _Steps(lanes, fields, None if keep.all() else xp.flatnonzero(keep))
        )

    def range_predicate(
        self, table: str, lanes: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> None:
        """Record phantom-protection predicates (the scalar
        ``ctx.ranges`` list), one per lane."""
        table_id, _ = self._db.resolve(table)
        self._range_chunks.append(
            (lanes, table_id, self.xp.asarray(lo, dtype=np.int64),
             self.xp.asarray(hi, dtype=np.int64))
        )

    # -- finalize -------------------------------------------------------------
    def finalize(self) -> tuple:
        """Resolve chunks into the group's op columns and columnar
        locals.

        Returns ``(lane, cols, locals, ranges_by_lane)``: op ``i`` was
        emitted by lane ``lane[i]`` and its fields are ``cols[:, i]``
        (``(OP_FIELDS, n_ops)``) — the chunks as emitted, rows of
        fallback lanes dropped, nothing reordered, so each lane's ops
        keep their program order — and ``locals`` is a
        :class:`GroupLocals` keyed by *lane* (the engine re-keys to
        batch positions).
        """
        xp = self.xp
        if self._chunks:
            sizes = [
                c.size if isinstance(c, _Steps) else c[0].size for c in self._chunks
            ]
            block = xp.empty((1 + OP_FIELDS, sum(sizes)), dtype=np.int64)
            pos = 0
            for chunk, size in zip(self._chunks, sizes):
                part = block[:, pos:pos + size]
                if isinstance(chunk, _Steps):
                    chunk.write(part, xp)
                else:
                    for f in range(1 + OP_FIELDS):
                        part[f] = chunk[f]
                pos += size
            if self.fallback.any():
                fb = xp.from_host(self.fallback)
                block = block[:, ~fb[block[0]]]
            lane, cols = block[0], block[1:]
        else:
            lane = np.empty(0, dtype=np.int64)
            cols = np.empty((OP_FIELDS, 0), dtype=np.int64)

        locals_ = self._resolve_locals(cols, lane)
        ranges_by_lane: dict[int, list[tuple[int, int, int]]] = {}
        for lanes, table_id, lo, hi in self._range_chunks:
            lanes_h = xp.to_host(lanes)
            lo_h, hi_h = xp.to_host(lo), xp.to_host(hi)
            m = ~self.fallback[lanes_h] & ~self.aborted[lanes_h]
            for i in np.flatnonzero(m):
                ranges_by_lane.setdefault(int(lanes_h[i]), []).append(
                    (table_id, int(lo_h[i]), int(hi_h[i]))
                )
        # the finalize boundary is the read/write-set shipping step: the
        # lane column and the op columns come back to the host, one D2H
        # each
        return xp.to_host(lane), xp.to_host(cols), locals_, ranges_by_lane

    def _resolve_locals(self, cols: np.ndarray, lane: np.ndarray) -> GroupLocals:
        """Columnar twin of ``LocalSets`` semantics: last write per
        location wins, a write kills earlier adds on its location, adds
        after the last write sum, delayed-column adds split out."""
        xp = self.xp
        n = self.n
        locals_ = GroupLocals(n)
        # per-txn accounting accumulates on ``xp`` until the D2H at the
        # bottom of this method
        nbytes = xp.from_host(locals_.nbytes_by_txn)
        delayed_count = xp.from_host(locals_.delayed_count_by_txn)
        if lane.size:
            live = ~xp.from_host(self.aborted)[lane]
        else:
            live = np.zeros(0, dtype=bool)
        kind = cols[0]
        wa = live & ((kind == _WRITE) | (kind == _ADD))
        if wa.any():
            sel = cols[1:5, wa]
            cells = Cells(lane[wa], sel[0], sel[1], sel[2], sel[3])
            # One sorted pass over writes and adds, delayed columns
            # included: the sort is stable, so within each (lane, cell)
            # run the emission order — the lane's program order —
            # survives as the index order.  A delayed column is only
            # ever ADDed (the collector rejects the batch otherwise),
            # so its runs hold no write and come out of the add rule
            # below as plain per-cell sums.
            order, starts = sorted_runs(
                cells.txn, cells.table, cells.row, cells.col, xp=xp
            )
            cells = cells.take(order)
            is_w = kind[wa][order] == _WRITE
            run = xp.zeros(order.size, dtype=np.int64)
            run[starts[1:]] = 1
            run = xp.cumsum(run)
            # last write position per run (-1 when none): wi is
            # ascending, so plain fancy assignment leaves each run its
            # final (= last) write index
            last_w = xp.full(starts.size, -1, dtype=np.int64)
            wi = xp.flatnonzero(is_w)
            if wi.size:
                last_w[run[wi]] = wi
                locals_.writes = cells.take(last_w[last_w >= 0])
            # adds surviving: non-write entries past the run's last
            # write, summed per run
            surv = ~is_w & (xp.arange(order.size, dtype=np.int64) > last_w[run])
            if surv.any():
                live_adds = cells.take(surv)
                astarts = run_starts(run[surv], xp=xp)
                adds = live_adds.take(astarts).replace(
                    val=segment_sum(live_adds.val, astarts, xp=xp)
                )
                if self._delayed_mask_fn is not None:
                    dl = self._delayed_mask_fn(adds.table, adds.col)
                    locals_.delayed = adds.take(dl)
                    adds = adds.take(~dl)
                    delayed_count += xp.bincount(locals_.delayed.txn, minlength=n)
                locals_.adds = adds
            nbytes += 8 * (
                xp.bincount(locals_.writes.txn, minlength=n)
                + xp.bincount(locals_.adds.txn, minlength=n)
            )
        # read/write-set shipping: the group's resolved cells and their
        # accounting land on the host here, one transfer per column
        # (identity on numpy)
        for name in _CELL_SETS:
            setattr(locals_, name, getattr(locals_, name).to_host(xp))
        locals_.nbytes_by_txn = xp.to_host(nbytes)
        locals_.delayed_count_by_txn = xp.to_host(delayed_count)
        if self._ins_chunks:
            self._resolve_inserts(locals_)
        return locals_

    def _resolve_inserts(self, locals_: GroupLocals) -> None:
        """The live lanes' inserts as one columnar record, with
        intra-transaction duplicate detection (the scalar
        ``TransactionError``)."""
        xp = self.xp
        chunks = self._ins_chunks
        sizes = np.fromiter(
            (c[0].size for c in chunks), dtype=np.int64, count=len(chunks)
        )
        L = xp.concatenate([c[0] for c in chunks])
        T = xp.concatenate(
            [xp.full(c[0].size, c[1], dtype=np.int64) for c in chunks]
        )
        K = xp.concatenate([c[2] for c in chunks])
        # chunks append in program order, so the global emission
        # position doubles as the per-lane sequence number; (chunk,
        # pos) find a row's values in its chunk's matrix
        seq = np.arange(L.size, dtype=np.int64)
        chunk = np.repeat(np.arange(len(chunks), dtype=np.int64), sizes)
        pos = seq - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # which lanes still count is host control state, so the lanes
        # come up first (they are the record's txn column anyway)
        txn = xp.to_host(L)
        dead = (self.fallback | self.aborted)[txn]
        if dead.any():
            keep = np.flatnonzero(~dead)
            L, T, K = L[keep], T[keep], K[keep]
            txn, seq, chunk, pos = txn[keep], seq[keep], chunk[keep], pos[keep]
        order, starts = sorted_runs(L, T, K, xp=xp)
        if starts.size < L.size:  # some (lane, table, key) repeats
            repeat = xp.ones(L.size, dtype=bool)
            repeat[starts] = False
            i = order[xp.flatnonzero(repeat)[:1]]
            (table_id,), (key,) = xp.tolist(T[i]), xp.tolist(K[i])
            raise TransactionError(
                f"transaction inserts key {key} into "
                f"{self._db.table_by_id(table_id).name!r} twice"
            )
        row_bytes = np.array([8 + 4 * len(c[3]) for c in chunks], dtype=np.int64)
        np.add.at(locals_.nbytes_by_txn, txn, row_bytes[chunk])
        locals_.inserts = InsertRows(
            txn, seq, xp.to_host(T), xp.to_host(K), chunk, pos
        )
        locals_.payloads = [(c[3], xp.to_host(c[4])) for c in chunks]


__all__ = [
    "BatchedContext",
    "Cells",
    "GroupLocals",
    "InsertRows",
    "ParamColumns",
    "column_name",
]
