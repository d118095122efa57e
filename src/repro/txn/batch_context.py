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

A group's writes and adds stay ops; its inserts become an
:class:`InsertRows` record.  The batch's :class:`GroupLocals` — three
:class:`Cells` records and one :class:`InsertRows` (the columnar
``LocalSets``) — collects every group's inserts, and the collector
resolves every lane's writes and adds into it at once, off the batch's
key order; the write-back phase installs it with masked grouped
scatters instead of per-transaction ``apply_local_sets`` calls.
"""

from __future__ import annotations

from array import array

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
from repro.xp import ArrayBackend, Rows, segment_sum, sorted_runs
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
    lane's actual parameter count); ``lengths[lane]`` is that count,
    and its row is gathered from the batch's ``flat`` at ``starts[lane]``.
    """

    __slots__ = ("padded", "lengths", "n", "xp")

    def __init__(
        self, flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
        xp: ArrayBackend,
    ):
        self.xp = xp
        self.n = len(lengths)
        width = int(lengths.max()) if self.n else 0
        slots = np.arange(width)
        present = slots < lengths[:, None]
        padded = np.zeros((self.n, width), dtype=np.int64)
        padded[present] = flat[(starts[:, None] + slots)[present]]
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


class GroupLocals:
    """The batch's resolved buffered effects, columnar.

    ``writes`` / ``adds`` are :class:`Cells` (the columnar
    ``LocalSets``); ``delayed`` carries the extracted delayed-column
    deltas.  Inserts are columnar too — an :class:`InsertRows` whose
    ``(chunk, pos)`` locate each row's values in ``payloads``, a list
    of ``(names, values_matrix)`` chunks — and only materialize per
    table at write-back.  ``nbytes_by_txn`` and ``delayed_count_by_txn``
    reproduce the scalar accounting exactly.

    Every record is keyed by batch position.  Inserts arrive per
    procedure group (:meth:`add_inserts`) and per scalar lane
    (:meth:`add_scalar_inserts`), and :meth:`seal` joins them; the
    cells come from the batch's op frame in one pass over its key
    order (:meth:`resolve_cells`), twin and scalar lanes alike.
    """

    __slots__ = (
        "writes", "adds", "delayed", "inserts", "payloads",
        "nbytes_by_txn", "delayed_count_by_txn",
        "_ins_parts", "_ins_rows", "_payloads",
    )

    def __init__(self, num_txns: int):
        self.writes = self.adds = self.delayed = Cells.empty()
        self.inserts = InsertRows.empty()
        self.payloads: list[tuple] = []
        self.nbytes_by_txn = np.zeros(num_txns, dtype=np.int64)
        self.delayed_count_by_txn = np.zeros(num_txns, dtype=np.int64)
        # Insert records of the twin groups, and the scalar lanes'
        # inserts buffered row-major until :meth:`seal` (one InsertRows
        # row per insert, the payloads per distinct column tuple).
        self._ins_parts: list[InsertRows] = []
        self._ins_rows = array("q")
        self._payloads: dict[tuple, list] = {}

    def add_inserts(
        self, lanes: np.ndarray, rows: InsertRows, payloads: list[tuple]
    ) -> None:
        """One twin group's inserts: ``rows`` keyed by the group's lane,
        whose batch position is ``lanes[lane]``, with their own
        ``payloads`` chunks."""
        if not rows.size:
            return
        row_bytes = np.array(
            [8 + 4 * len(names) for names, _ in payloads], dtype=np.int64
        )
        txn = lanes[rows.txn]
        np.add.at(self.nbytes_by_txn, txn, row_bytes[rows.chunk])
        self._ins_parts.append(
            rows.replace(txn=txn, chunk=rows.chunk + len(self.payloads))
        )
        self.payloads.extend(payloads)

    def add_scalar_inserts(self, txn_idx: int, inserts: dict) -> None:
        """Buffer one scalar-executed lane's inserts (its
        ``LocalSets.inserts``) as rows; :meth:`seal` makes them columns.
        Nothing is converted per lane: that would copy every column once
        per lane and give every inserted row a payload chunk of its own
        for the write-back to walk."""
        payloads = self._payloads
        nbytes = 0
        for seq, ((t, key), values) in enumerate(inserts.items()):
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

    def seal(self) -> None:
        """Join the groups' insert records and the rows
        :meth:`add_scalar_inserts` buffered — one conversion however
        many lanes there were, and one payload chunk per distinct
        insert column tuple."""
        parts = self._ins_parts
        if self._ins_rows:
            rows = np.frombuffer(self._ins_rows, dtype=np.int64).reshape(-1, 6)
            rows = InsertRows(*np.ascontiguousarray(rows.T))
            parts.append(rows.replace(chunk=rows.chunk + len(self.payloads)))
            self.payloads.extend(
                (names, np.frombuffer(buf, dtype=np.int64).reshape(count, len(names)))
                for names, (_, count, buf) in self._payloads.items()
            )
        self.inserts = InsertRows.concat([self.inserts, *parts])
        # the buffers are handed over to the arrays made from them (an
        # exported array('q') cannot be cleared), so start fresh ones
        self._ins_parts, self._ins_rows, self._payloads = [], array("q"), {}

    def resolve_cells(
        self, ops: Cells, pos: np.ndarray, is_write: np.ndarray,
        cell: np.ndarray, delayed: np.ndarray,
    ) -> None:
        """``LocalSets`` semantics over every live lane's writes and
        adds at once: last write per cell wins, a write kills earlier
        adds on its cell, adds after the last write sum, delayed-column
        adds split out.

        ``ops`` is the batch's op frame as cells, ``delayed`` marks its
        adds on delayed columns, and ``pos`` picks the writes and adds
        out of it with each cell's — one lane's, one ``(table, row,
        col)`` — contiguous; ``cell`` numbers their cells and
        ``is_write`` marks the writes.  Frame positions are a lane's
        program order, so the order within a cell does not matter.  A
        delayed column is only ever ADDed (the collector rejects the
        batch otherwise), so its cells hold no write and come out of
        the add rule as plain per-cell sums."""
        n = self.nbytes_by_txn.size
        if not pos.size:
            return
        starts = run_starts(cell)
        # the cell's last write, by program order (-1 when none)
        last_w = np.maximum.reduceat(np.where(is_write, pos, -1), starts)
        last_w = np.repeat(last_w, np.diff(starts, append=pos.size))
        self.writes = ops.take(pos[is_write & (pos == last_w)])
        # adds surviving: past the cell's last write, summed per cell
        surv = ~is_write & (pos > last_w)
        astarts = run_starts(cell[surv])
        at = pos[surv]
        sums = segment_sum(ops.val[at], astarts)
        heads = at[astarts]
        dl = delayed[heads]
        self.delayed = ops.take(heads[dl]).replace(val=sums[dl])
        self.adds = ops.take(heads[~dl]).replace(val=sums[~dl])
        self.delayed_count_by_txn = np.bincount(self.delayed.txn, minlength=n)
        self.nbytes_by_txn += 8 * (
            np.bincount(self.writes.txn, minlength=n)
            + np.bincount(self.adds.txn, minlength=n)
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

    def __init__(self, database: Database, params: ParamColumns, residency=None):
        self._db = database
        #: the array backend all emission/finalize math runs on
        self.xp = params.xp
        #: the engine's device-resident snapshot
        #: (:class:`~repro.xp.residency.ResidencyManager`) when ``xp``
        #: is a device; ``None`` on the host
        self._residency = residency
        self.n = params.n
        self.params = params
        #: lanes not yet logic-aborted and not sent to fallback
        self.active = np.ones(self.n, dtype=bool)
        #: lanes that logic-aborted (keep emitted ops, empty locals)
        self.aborted = np.zeros(self.n, dtype=bool)
        #: lanes to re-run through the scalar procedure
        self.fallback = np.zeros(self.n, dtype=bool)
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
        # whether a lane fell back after some op chunk was emitted: only
        # then can the op block hold rows finalize must drop (a lane
        # that falls back first emits nothing, being inactive after)
        self._fell_after_emit = False

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
        if lanes.size and self._chunks:
            self._fell_after_emit = True
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
        one chunk, of any op kind, for pairs that may stop early.

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
        """Resolve chunks into the group's op columns and insert
        record.

        Returns ``(lane, cols, inserts, payloads, ranges_by_lane)``: op
        ``i`` was emitted by lane ``lane[i]`` and its fields are
        ``cols[:, i]`` (``(OP_FIELDS, n_ops)``) — the chunks as emitted,
        rows of fallback lanes dropped, nothing reordered, so each
        lane's ops keep their program order — and ``inserts`` is the
        live lanes' :class:`InsertRows`, keyed by *lane*, over the
        ``payloads`` chunks (:meth:`GroupLocals.add_inserts`).  The
        writes and adds stay ops: the collector resolves every group's
        at once, off the batch's key order
        (:meth:`GroupLocals.resolve_cells`).
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
            if self._fell_after_emit:
                fb = xp.from_host(self.fallback)
                block = block[:, ~fb[block[0]]]
            lane, cols = block[0], block[1:]
        else:
            lane = np.empty(0, dtype=np.int64)
            cols = np.empty((OP_FIELDS, 0), dtype=np.int64)

        inserts, payloads = self._resolve_inserts()
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
        return xp.to_host(lane), xp.to_host(cols), inserts, payloads, ranges_by_lane

    def _resolve_inserts(self) -> tuple[InsertRows, list[tuple]]:
        """The live lanes' inserts as one columnar record and its
        payload chunks, with intra-transaction duplicate detection (the
        scalar ``TransactionError``)."""
        xp = self.xp
        chunks = self._ins_chunks
        if not chunks:
            return InsertRows.empty(), []
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
        inserts = InsertRows(txn, seq, xp.to_host(T), xp.to_host(K), chunk, pos)
        return inserts, [(c[3], xp.to_host(c[4])) for c in chunks]


__all__ = [
    "BatchedContext",
    "Cells",
    "GroupLocals",
    "InsertRows",
    "ParamColumns",
    "column_name",
]
