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

* every emitted op carries its lane and a per-lane sequence number, so
  :meth:`BatchedContext.finalize` can lexsort chunks back into exactly
  the order a per-transaction execution would have recorded;
* lanes that hit a case the vectorized code cannot express (duplicate
  keys needing read-your-own-writes, etc.) are *fallback* lanes — their
  chunk contributions are discarded and the engine re-runs them through
  the scalar procedure, which is identical by construction;
* logic aborts are masks: a dead lane keeps the ops it emitted before
  the abort and contributes empty local sets, exactly like the scalar
  ``TransactionAborted`` path.

The group's resolved effects land in :class:`GroupLocals` — flat
``(txn, table, row, col, value)`` arrays (the columnar ``LocalSets``)
that the engine's write-back phase installs with masked grouped
scatters instead of per-transaction ``apply_local_sets`` calls.
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
from repro.xp import ArrayBackend, get_backend

_READ = int(OpKind.READ)
_WRITE = int(OpKind.WRITE)
_ADD = int(OpKind.ADD)
_INSERT = int(OpKind.INSERT)
_EMPTY_COL = intern_column("")
_KEY_COL = intern_column(KEY_COLUMN)


def pack_sort_key(
    *fields: np.ndarray, xp: ArrayBackend | None = None
) -> np.ndarray | None:
    """Fold non-negative sort fields (major first) into one int64 key so
    a single radix argsort can replace a multi-key lexsort.  Returns
    ``None`` when any field is negative or the combined ranges cannot
    fit 62 bits (the caller falls back to ``xp.lexsort``).

    Runs on whichever backend owns ``fields``; pass ``xp`` so the packed
    key stays device-resident (the min/max range probes are one-word
    readbacks either way — device reductions with a scalar result).
    """
    spans = []
    width = 1
    for f in fields:
        if int(f.min()) < 0:
            return None
        s = int(f.max()) + 1
        spans.append(s)
        width *= s
        if width >= 1 << 62:
            return None
    if xp is None:
        packed = fields[0].astype(np.int64, copy=True)
    else:
        packed = xp.astype(fields[0], np.int64, copy=True)
    for f, s in zip(fields[1:], spans[1:]):
        packed *= s
        packed += f
    return packed


def _append_scalar(xp: ArrayBackend, arr, value: int):
    """``np.append(arr, value)`` that stays on ``arr``'s device."""
    return xp.concatenate((arr, xp.asarray([value], dtype=np.int64)))


class ParamColumns:
    """A group's transaction parameters as padded int64 columns.

    ``padded[lane, i]`` is parameter ``i`` of lane ``lane`` (0 past the
    lane's actual parameter count); ``lengths[lane]`` is that count.
    """

    __slots__ = ("padded", "lengths", "n", "xp")

    def __init__(self, params_list: list[tuple], xp: ArrayBackend | None = None):
        self.xp = xp if xp is not None else get_backend("numpy")
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


class GroupLocals:
    """One group's resolved buffered effects, columnar.

    ``writes``/``adds`` are flat ``(txn, table, row, col_id, value)``
    int64 arrays (the columnar ``LocalSets``); ``delayed`` carries the
    extracted delayed-column deltas.  Inserts are columnar too —
    ``(i_txn, i_seq, i_table, i_key)`` arrays plus ``(i_chunk, i_pos)``
    locators into ``i_meta``, a list of ``(names, values_matrix)``
    payload chunks — and only materialize per-row at write-back, where
    :meth:`iter_inserts` walks them in (transaction, emission) order.
    ``nbytes_by_txn`` and ``delayed_count_by_txn`` reproduce the scalar
    accounting exactly.

    Lanes that ran through their scalar procedure join the same arrays:
    :meth:`add_scalar_locals` buffers each lane's ``LocalSets`` as rows
    and :meth:`seal` turns all of them into columns at once.
    """

    _NUM_ARRAYS = 21

    __slots__ = (
        "w_txn", "w_table", "w_row", "w_col", "w_val",
        "a_txn", "a_table", "a_row", "a_col", "a_val",
        "d_txn", "d_table", "d_row", "d_col", "d_val",
        "i_txn", "i_seq", "i_table", "i_key", "i_chunk", "i_pos",
        "i_meta", "nbytes_by_txn", "delayed_count_by_txn",
        "_rows", "_ins_rows", "_payloads",
    )

    def __init__(self, num_txns: int):
        e = np.empty(0, dtype=np.int64)
        for name in self.__slots__[:self._NUM_ARRAYS]:
            setattr(self, name, e)
        self.i_meta: list[tuple] = []
        self.nbytes_by_txn = np.zeros(num_txns, dtype=np.int64)
        self.delayed_count_by_txn = np.zeros(num_txns, dtype=np.int64)
        # Scalar-executed lanes, buffered row-major until :meth:`seal`:
        # (txn, table, row, col, value) per w/a/d array family,
        # (txn, seq, table, key, chunk, pos) per insert, and the insert
        # payloads per distinct column tuple.
        self._rows = {prefix: array("q") for prefix in "wad"}
        self._ins_rows = array("q")
        self._payloads: dict[tuple, list] = {}

    # -- batch-wide accumulation ------------------------------------------
    @staticmethod
    def merge(parts: list["GroupLocals"], num_txns: int) -> "GroupLocals":
        out = GroupLocals(num_txns)
        for name in out.__slots__[:out._NUM_ARRAYS]:
            if name == "i_chunk":
                continue  # needs per-part offsets, handled below
            setattr(
                out,
                name,
                np.concatenate([getattr(p, name) for p in parts])
                if parts else np.empty(0, dtype=np.int64),
            )
        chunk_parts = []
        for p in parts:
            chunk_parts.append(p.i_chunk + len(out.i_meta))
            out.i_meta.extend(p.i_meta)
            out.nbytes_by_txn += p.nbytes_by_txn
            out.delayed_count_by_txn += p.delayed_count_by_txn
        out.i_chunk = (
            np.concatenate(chunk_parts) if parts else np.empty(0, dtype=np.int64)
        )
        return out

    def rekeyed(self, idx_arr: np.ndarray, num_txns: int) -> "GroupLocals":
        """Re-key lane-indexed locals to batch positions: ``idx_arr``
        maps lane -> batch index (the group's transaction positions)."""
        out = GroupLocals(num_txns)
        for name in self.__slots__[:self._NUM_ARRAYS]:
            if name.endswith("_txn"):
                setattr(out, name, idx_arr[getattr(self, name)])
            else:
                setattr(out, name, getattr(self, name))
        out.i_meta = self.i_meta
        out.nbytes_by_txn[idx_arr] = self.nbytes_by_txn
        out.delayed_count_by_txn[idx_arr] = self.delayed_count_by_txn
        return out

    def iter_inserts(self, commit: np.ndarray | None = None):
        """Insert records in (transaction, emission) order — the slot
        assignment the scalar write-back produces.  Yields
        ``(txn_idx, table_id, key, names, values)`` rows, restricted to
        committed transactions when ``commit`` is given."""
        if self.i_txn.size == 0:
            return
        order = np.lexsort((self.i_seq, self.i_txn))
        if commit is not None:
            order = order[commit[self.i_txn[order]]]
        meta = self.i_meta
        rows_cache: dict[int, list] = {}
        for txn, tbl, key, ch, pos in zip(
            self.i_txn[order].tolist(),
            self.i_table[order].tolist(),
            self.i_key[order].tolist(),
            self.i_chunk[order].tolist(),
            self.i_pos[order].tolist(),
        ):
            names, vals = meta[ch]
            rows = rows_cache.get(ch)
            if rows is None:
                rows = rows_cache[ch] = vals.tolist()
            yield txn, tbl, key, names, rows[pos]

    def add_scalar_locals(self, txn_idx: int, local, delayed_columns) -> None:
        """Buffer one scalar-executed transaction's ``LocalSets`` as
        rows (its adds on ``delayed_columns`` — ``(table_id, column)``
        pairs — as delayed deltas); :meth:`seal` makes them columns.
        Nothing is converted per lane: that would copy every column
        once per lane and give every inserted row a payload chunk of
        its own for the write-back to walk."""
        col_id = _COLUMN_IDS.__getitem__  # recording the ops interned them
        emit_w = self._rows["w"].extend
        for (t, row, col), val in local.writes.items():
            emit_w((txn_idx, t, row, col_id(col), val))
        emit_a, emit_d = self._rows["a"].extend, self._rows["d"].extend
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
        arrays — one conversion per array however many lanes there
        were, and one payload chunk per distinct insert column tuple."""
        # The buffers are handed over to the arrays made from them (an
        # exported array('q') cannot be cleared), so start fresh ones.
        rows, self._rows = self._rows, {prefix: array("q") for prefix in "wad"}
        ins_rows, self._ins_rows = self._ins_rows, array("q")
        payloads, self._payloads = self._payloads, {}
        for prefix, buf in rows.items():
            if not buf:
                continue
            arr = np.frombuffer(buf, dtype=np.int64).reshape(-1, 5)
            for field, suffix in enumerate(("txn", "table", "row", "col", "val")):
                name = f"{prefix}_{suffix}"
                setattr(self, name, np.concatenate((getattr(self, name), arr[:, field])))
        if ins_rows:
            head = np.frombuffer(ins_rows, dtype=np.int64).reshape(-1, 6)
            for field, name in enumerate(
                ("i_txn", "i_seq", "i_table", "i_key", "i_chunk", "i_pos")
            ):
                setattr(self, name, np.concatenate((getattr(self, name), head[:, field])))
            self.i_chunk[-head.shape[0]:] += len(self.i_meta)
            self.i_meta.extend(
                (names, np.frombuffer(buf, dtype=np.int64).reshape(count, len(names)))
                for names, (_, count, buf) in payloads.items()
            )


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
        self.xp = xp if xp is not None else get_backend("numpy")
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
        # op chunks: (lanes, kind, table, rows, col, values, keys); the
        # scalar fields broadcast at finalize.  Chunks append in program
        # order, so each lane's ops appear across chunks exactly in the
        # order a per-transaction execution would record them — a stable
        # sort by lane at finalize is all the reordering ever needed.
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
        xp = self.xp
        _, t = self._db.resolve(table)
        keys = xp.asarray(keys, dtype=np.int64)
        dense = (keys >= 0) & (keys < t._dense_limit)
        rows = xp.where(dense, keys, -1)
        found = dense.copy()
        if not dense.all():
            # hash-index probes are host work: read the probe keys back
            # explicitly, resolve, and ship the slots down in one go
            get = t.primary.get
            nd = xp.flatnonzero(~dense)
            slots = np.fromiter(
                (
                    -1 if (slot := get(k)) is None else slot
                    for k in xp.tolist(keys[nd])
                ),
                dtype=np.int64,
                count=nd.size,
            )
            dslots = xp.from_host(slots)
            hit = dslots >= 0
            rows[nd[hit]] = dslots[hit]
            found[nd[hit]] = True
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
        keys = xp.asarray(flat_keys, dtype=np.int64)
        dense = (keys >= 0) & (keys < t._dense_limit)
        rows = xp.where(dense, keys, -1)
        nd = xp.flatnonzero(~dense)
        if nd.size:
            get = t.primary.get
            slots = np.fromiter(
                (
                    -1 if (slot := get(k)) is None else slot
                    for k in xp.tolist(keys[nd])
                ),
                dtype=np.int64,
                count=nd.size,
            )
            dslots = xp.from_host(slots)
            hit = dslots >= 0
            rows[nd[hit]] = dslots[hit]
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
        exists = (keys >= 0) & (keys < t._dense_limit)
        nd = xp.flatnonzero(~exists)
        if nd.size:
            has = t.primary.__contains__
            hits = np.fromiter(
                map(has, xp.tolist(keys[nd])), dtype=bool, count=nd.size
            )
            exists[nd[hits]] = True
        if exists.any():
            self.logic_abort(lanes[exists])
        ok = ~exists
        ok_lanes = lanes[ok]
        if ok_lanes.size == 0:
            return ok
        ok_keys = keys[ok]
        names = tuple(values)
        cols = xp.stack(
            [xp.broadcast_to(xp.asarray(values[c], dtype=np.int64), lanes.shape)[ok]
             for c in names],
            axis=1,
        ) if names else np.zeros((ok_lanes.size, 0), dtype=np.int64)
        self._ins_chunks.append((ok_lanes, table_id, ok_keys, names, cols))
        self._emit(ok_lanes, _INSERT, table_id, -1, _EMPTY_COL, 0, ok_keys)
        return ok

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
        """Resolve chunks into per-lane op streams and columnar locals.

        Returns ``(flat_ops, counts, locals, ranges_by_lane)`` where
        ``flat_ops`` is the lexsorted ``(total, OP_FIELDS)`` matrix over
        non-fallback lanes, ``counts`` the per-lane op counts, and
        ``locals`` a :class:`GroupLocals` keyed by *lane* (the engine
        re-keys to batch positions).
        """
        xp = self.xp
        n = self.n
        if self._chunks:
            sizes = [c[0].size for c in self._chunks]
            total = sum(sizes)
            cols = xp.empty((7, total), dtype=np.int64)
            pos = 0
            for chunk, size in zip(self._chunks, sizes):
                block = cols[:, pos:pos + size]
                for f in range(7):
                    block[f] = chunk[f]
                pos += size
            lane = cols[0]
            # stable by lane: chunks already hold each lane's ops in
            # program order, so no secondary sort key is needed; lane
            # fits int32, which halves the radix passes
            if self.fallback.any():
                fb = xp.from_host(self.fallback)
                keep = xp.flatnonzero(~fb[lane])
                perm = keep[
                    xp.argsort(xp.astype(lane[keep], np.int32), stable=True)
                ]
            else:
                perm = xp.argsort(xp.astype(lane, np.int32), stable=True)
            lane = lane[perm]
            mat = xp.empty((perm.size, OP_FIELDS), dtype=np.int64)
            for f in range(1, 7):
                mat[:, f - 1] = cols[f, perm]
            counts = xp.bincount(lane, minlength=n)
        else:
            mat = np.empty((0, OP_FIELDS), dtype=np.int64)
            counts = np.zeros(n, dtype=np.int64)
            lane = np.empty(0, dtype=np.int64)

        locals_ = self._resolve_locals(mat, lane)
        ranges_by_lane: dict[int, list[tuple[int, int, int]]] = {}
        for lanes, table_id, lo, hi in self._range_chunks:
            lanes_h = xp.to_host(lanes)
            lo_h, hi_h = xp.to_host(lo), xp.to_host(hi)
            m = ~self.fallback[lanes_h] & ~self.aborted[lanes_h]
            for i in np.flatnonzero(m):
                ranges_by_lane.setdefault(int(lanes_h[i]), []).append(
                    (table_id, int(lo_h[i]), int(hi_h[i]))
                )
        # the finalize boundary is the read/write-set shipping step: op
        # matrix and per-lane counts come back to the host in one D2H
        return xp.to_host(mat), xp.to_host(counts), locals_, ranges_by_lane

    def _resolve_locals(self, mat: np.ndarray, lane: np.ndarray) -> GroupLocals:
        """Columnar twin of ``LocalSets`` semantics: last write per
        location wins, a write kills earlier adds on its location, adds
        after the last write sum, delayed-column adds split out."""
        xp = self.xp
        locals_ = GroupLocals(self.n)
        if xp.is_device:
            # per-txn accounting accumulates on-device until the final
            # D2H at the bottom of this method
            locals_.nbytes_by_txn = xp.from_host(locals_.nbytes_by_txn)
            locals_.delayed_count_by_txn = xp.from_host(
                locals_.delayed_count_by_txn
            )
        if lane.size:
            live = ~xp.from_host(self.aborted)[lane]
        else:
            live = np.zeros(0, dtype=bool)
        kind = mat[:, 0]
        wa = live & ((kind == _WRITE) | (kind == _ADD))
        if wa.any():
            l = lane[wa]
            t = mat[wa, 1]
            r = mat[wa, 2]
            c = mat[wa, 3]
            v = mat[wa, 4]
            is_w = kind[wa] == _WRITE
            if self._delayed_mask_fn is not None:
                dl = self._delayed_mask_fn(t, c) & ~is_w
            else:
                dl = np.zeros(l.size, dtype=bool)
            # delayed adds: sum per (lane, table, row, col)
            if dl.any():
                dt, dr, dc, dlane, dv = t[dl], r[dl], c[dl], l[dl], v[dl]
                packed = pack_sort_key(dlane, dt, dr, dc, xp=xp)
                order = (
                    xp.argsort(packed, stable=True)
                    if packed is not None
                    else xp.lexsort((dc, dr, dt, dlane))
                )
                dlane, dt, dr, dc, dv = (
                    dlane[order], dt[order], dr[order], dc[order], dv[order]
                )
                new = xp.empty(dlane.size, dtype=bool)
                new[0] = True
                new[1:] = (
                    (dlane[1:] != dlane[:-1]) | (dt[1:] != dt[:-1])
                    | (dr[1:] != dr[:-1]) | (dc[1:] != dc[:-1])
                )
                first = xp.flatnonzero(new)
                # int64 segment sums as cumsum differences at segment
                # boundaries (exact; bincount weights would round-trip
                # through float64)
                cs = xp.cumsum(dv)
                last = _append_scalar(xp, first[1:], dv.size) - 1
                locals_.d_txn = dlane[first]
                locals_.d_table = dt[first]
                locals_.d_row = dr[first]
                locals_.d_col = dc[first]
                locals_.d_val = cs[last] - cs[first] + dv[first]
                locals_.delayed_count_by_txn += xp.bincount(
                    locals_.d_txn, minlength=self.n
                )
            nk = ~dl
            if nk.any():
                l2, t2, r2, c2, v2, w2 = l[nk], t[nk], r[nk], c[nk], v[nk], is_w[nk]
                # the sort is stable, so within each (lane, loc) segment
                # the emission order survives as the index order
                packed = pack_sort_key(l2, t2, r2, c2, xp=xp)
                order = (
                    xp.argsort(packed, stable=True)
                    if packed is not None
                    else xp.lexsort((c2, r2, t2, l2))
                )
                l2, t2, r2, c2, v2, w2 = (
                    l2[order], t2[order], r2[order], c2[order],
                    v2[order], w2[order],
                )
                new = xp.empty(l2.size, dtype=bool)
                new[0] = True
                new[1:] = (
                    (l2[1:] != l2[:-1]) | (t2[1:] != t2[:-1])
                    | (r2[1:] != r2[:-1]) | (c2[1:] != c2[:-1])
                )
                seg = xp.cumsum(new) - 1
                nseg = int(new.sum())
                # last write position per segment (-1 when none): wi is
                # ascending, so plain fancy assignment leaves each
                # segment its final (= last) write index
                last_w = xp.full(nseg, -1, dtype=np.int64)
                wi = xp.flatnonzero(w2)
                if wi.size:
                    last_w[seg[wi]] = wi
                has_w = last_w >= 0
                if has_w.any():
                    widx = last_w[has_w]
                    locals_.w_txn = l2[widx]
                    locals_.w_table = t2[widx]
                    locals_.w_row = r2[widx]
                    locals_.w_col = c2[widx]
                    locals_.w_val = v2[widx]
                # adds surviving: non-write entries past the segment's
                # last write, summed per segment via cumsum differences
                # (exact int64, no float round-trip)
                idx = xp.arange(l2.size, dtype=np.int64)
                surv = ~w2 & (idx > last_w[seg])
                if surv.any():
                    aseg = seg[surv]
                    sv = v2[surv]
                    anew = xp.empty(aseg.size, dtype=bool)
                    anew[0] = True
                    anew[1:] = aseg[1:] != aseg[:-1]
                    astart = xp.flatnonzero(anew)
                    cs = xp.cumsum(sv)
                    alast = _append_scalar(xp, astart[1:], sv.size) - 1
                    first_of_seg = xp.flatnonzero(new)
                    fi = first_of_seg[aseg[astart]]
                    locals_.a_txn = l2[fi]
                    locals_.a_table = t2[fi]
                    locals_.a_row = r2[fi]
                    locals_.a_col = c2[fi]
                    locals_.a_val = cs[alast] - cs[astart] + sv[astart]
            cells = xp.bincount(locals_.w_txn, minlength=self.n) + xp.bincount(
                locals_.a_txn, minlength=self.n
            )
            locals_.nbytes_by_txn += 8 * cells
        # inserts: materialize ordered records, with intra-transaction
        # duplicate detection (the scalar TransactionError)
        if self._ins_chunks:
            parts = []
            # no fallback and no aborts => every chunk survives whole;
            # skip the per-chunk lane readback entirely
            clean = not (self.fallback.any() or self.aborted.any())
            for el, table_id, keys, names, vals in self._ins_chunks:
                if clean:
                    parts.append((el, table_id, keys, names, vals))
                    continue
                el_h = xp.to_host(el)
                m = ~self.fallback[el_h] & ~self.aborted[el_h]
                if m.all():
                    parts.append((el, table_id, keys, names, vals))
                elif m.any():
                    parts.append((el[m], table_id, keys[m], names, vals[m]))
            if parts:
                L = xp.concatenate([p[0] for p in parts])
                T = xp.concatenate(
                    [xp.full(p[0].size, p[1], dtype=np.int64) for p in parts]
                )
                K = xp.concatenate([p[2] for p in parts])
                if L.size > 1:
                    packed = pack_sort_key(L, T, K, xp=xp)
                    order = (
                        xp.argsort(packed, stable=True)
                        if packed is not None
                        else xp.lexsort((K, T, L))
                    )
                    Ls, Ts, Ks = L[order], T[order], K[order]
                    d = (
                        (Ls[1:] == Ls[:-1]) & (Ts[1:] == Ts[:-1])
                        & (Ks[1:] == Ks[:-1])
                    )
                    if d.any():
                        Ts_h, Ks_h = xp.to_host(Ts), xp.to_host(Ks)
                        i = int(np.flatnonzero(xp.to_host(d))[0]) + 1
                        tname = self._db.table_by_id(int(Ts_h[i])).name
                        raise TransactionError(
                            f"transaction inserts key {int(Ks_h[i])} into "
                            f"{tname!r} twice"
                        )
                nb = xp.concatenate([
                    xp.full(p[0].size, 8 + 4 * len(p[3]), dtype=np.int64)
                    for p in parts
                ])
                xp.scatter_add(locals_.nbytes_by_txn, L, nb)
                # columnar insert records: chunks append in program
                # order, so the global emission position doubles as the
                # per-lane sequence number
                sizes = np.fromiter(
                    (p[0].size for p in parts), dtype=np.int64, count=len(parts)
                )
                locals_.i_txn = L
                locals_.i_table = T
                locals_.i_key = K
                locals_.i_seq = np.arange(L.size, dtype=np.int64)
                locals_.i_chunk = np.repeat(
                    np.arange(len(parts), dtype=np.int64), sizes
                )
                starts = np.cumsum(sizes) - sizes
                locals_.i_pos = locals_.i_seq - np.repeat(starts, sizes)
                locals_.i_meta = [(p[3], xp.to_host(p[4])) for p in parts]
        # read/write-set shipping: the group's resolved locals land on
        # the host here, in one transfer per array (identity on numpy)
        for name in GroupLocals.__slots__[:GroupLocals._NUM_ARRAYS]:
            setattr(locals_, name, xp.to_host(getattr(locals_, name)))
        locals_.nbytes_by_txn = xp.to_host(locals_.nbytes_by_txn)
        locals_.delayed_count_by_txn = xp.to_host(locals_.delayed_count_by_txn)
        return locals_


__all__ = [
    "BatchedContext",
    "GroupLocals",
    "ParamColumns",
    "column_name",
]
