"""The execute stage's collector: one pass over the batch's op frame
charges the per-op costs, opens the conflict log on the batch's key
space and builds the reservations; :func:`register_batch` then
registers every TID in the log."""

from __future__ import annotations

import numpy as np

from repro.core.batch import (
    INSERT_GLOBAL_WRITES,
    OP_INSTRUCTIONS,
    READ_GLOBAL_READS,
    REGISTER_INSTRUCTIONS,
    WRITE_GLOBAL_READS,
    WRITE_GLOBAL_WRITES,
    Batch,
    RangeReservations,
    Reservations,
)
from repro.core.config import MemoryMode
from repro.errors import TransactionError
from repro.txn.batch_context import Cells, GroupLocals
from repro.txn.decompose import plan_arrays
from repro.txn.operations import (
    KEY_COLUMN,
    NUM_OP_KINDS,
    OpKind,
    column_interner_size,
    column_name,
)
from repro.xp import sorted_runs

#: The reservation sides of each op kind (bit 1: read, bit 2: write):
#: an ADD is a read-modify-write; an INSERT reserves its key elsewhere.
_SIDES = np.array([1, 2, 3, 0], dtype=np.uint8)


def collect_columnar(engine, batch: Batch, ctx) -> None:
    """Batch-wide columnar op collection.

    The frame's op columns, in emission order, feed warp planning,
    ``np.bincount`` cost accounting, touched-page collection and the
    table popularity counts the log is opened with (:func:`open_log`).
    Then the batch's one key order — the only sort of its ops — feeds
    the reservation dedup and the columnar locals.  Leaves the batch's
    ``reads`` / ``writes`` (in key order, as the conflict log takes
    them) / ``inserts`` / ``ranges`` and the cells of its
    ``batch_locals``.
    """
    db = engine.database
    transactions = batch.transactions
    n = len(transactions)
    frame = batch.frame
    cols, op_txn = frame.cols, frame.txn
    tids = batch.tids
    registers = ~batch.logic_mask
    total = op_txn.size
    kind = cols[0]
    table = cols[1]
    row = cols[2]
    col = cols[3]
    val = cols[4]
    key = cols[5]

    # Warp planning over the whole batch.  Grouped planning counts ops
    # per class; the naive ablation walks each lane's ops step by step,
    # so it alone needs the frame laid out lane-major.
    grouped = engine.config.adaptive_warps
    plan_cols = cols if grouped else frame.matrix.T
    exec_plan = plan_arrays(plan_cols[0], plan_cols[1], frame.counts, grouped)
    ctx.add_divergent_branches(exec_plan.divergent_branches)

    # Per-op hardware costs, batch-wide by kind.
    kind_counts = np.bincount(kind, minlength=NUM_OP_KINDS)
    n_reads = int(kind_counts[OpKind.READ])
    n_inserts = int(kind_counts[OpKind.INSERT])
    n_rmw = total - n_reads - n_inserts  # WRITEs + ADDs
    ctx.add_instructions(OP_INSTRUCTIONS * total)
    ctx.add_global_reads(
        READ_GLOBAL_READS * n_reads + WRITE_GLOBAL_READS * n_rmw
    )
    ctx.add_global_writes(
        INSERT_GLOBAL_WRITES * n_inserts + WRITE_GLOBAL_WRITES * n_rmw
    )

    # Range predicates register for phantom checks; B-tree descents
    # cost their height.  Few transactions carry ranges, so this
    # stays a loop over just those.
    range_rows: list[tuple[int, int, int, int, int]] = []
    if batch.ranges_by_tid:
        for i, txn in enumerate(transactions):
            if not registers[i]:
                continue
            for table_id, lo, hi in batch.ranges_by_tid.get(txn.tid, ()):
                range_rows.append((i, txn.tid, table_id, lo, hi))
                ordered = db.table_by_id(table_id).ordered
                if ordered is not None:  # B-tree descent per range
                    ctx.add_global_reads(ordered.height)
    ranges = batch.ranges = RangeReservations(*np.ascontiguousarray(
        np.asarray(range_rows, dtype=np.int64).reshape(len(range_rows), 5).T
    ))

    # Distinct (txn, table) pairs -> per-table accessing-txn counts.
    # The pair space is tiny (n x num_tables), so a scatter into a
    # boolean grid beats a sort-based np.unique.
    num_tables = db.num_tables
    seen_pairs = np.zeros((n, num_tables), dtype=bool)
    seen_pairs.reshape(-1)[op_txn * num_tables + table] = True
    seen_pairs[ranges.txn, ranges.table] = True
    per_table = seen_pairs.sum(axis=0)
    table_txns = {int(t): int(c) for t, c in enumerate(per_table) if c}

    # Rows with real slots, per table (unified-memory page faults).
    touched_rows: dict[int, np.ndarray] = {}
    if engine.memory_plan.mode is MemoryMode.UNIFIED:
        has_row = row >= 0
        t_ok = table[has_row]
        r_ok = row[has_row]
        for table_id in np.unique(t_ok):
            touched_rows[int(table_id)] = np.unique(r_ok[t_ok == table_id])

    # Delayed-column discipline: within a batch those columns may
    # only be touched through ADD (checked before the own-insert
    # row filter, exactly like the test oracle's per-op loop).
    reg_op = registers[op_txn]
    non_insert = reg_op & (kind != OpKind.INSERT)
    is_add = kind == OpKind.ADD
    if engine.delayed.columns:
        delayed_ops = engine.delayed.delayed_mask(table, col)
        bad = non_insert & delayed_ops & ~is_add
        if bad.any():
            # name the lowest lane's first offence: argmin keeps the
            # first of that lane's ops, and they are in program order
            at = np.flatnonzero(bad)
            offender = column_name(int(col[at[np.argmin(op_txn[at])]]))
            raise TransactionError(
                f"column {offender!r} is delayed-update managed and "
                f"may only be accessed with ADD in a batch"
            )
        skip_delayed = delayed_ops & is_add
    else:
        skip_delayed = np.zeros(total, dtype=bool)
    check_columns(db, table, col, batch.batch_locals)

    open_log(engine, table_txns, touched_rows, ctx)

    # Insert reservations (registering transactions only).
    ins = np.flatnonzero(reg_op & (kind == OpKind.INSERT))
    txn = op_txn[ins]
    batch.inserts = Reservations(txn, tids[txn], table[ins], key[ins])

    # The batch's one key order: every registering lane's op on a real
    # row, sorted by (conflict key, lane, column) — the key is (table,
    # row, flag group) packed, so this is GPUTx's sort-by-key — with
    # its runs marked at reservation (key + lane) and cell (reservation
    # + column) width; the registrations find the key runs themselves
    # (ConflictLog._register).  Rows < 0 are reads of the lane's own
    # insert, which the insert reservation already guards.  A column
    # lies in one flag group, so a cell run is one lane's ops on one
    # cell, in program order.  Every consumer of the order is
    # order-insensitive (atomicMin registration, per-lane scatters,
    # WAW-disjoint or commutative installs; ARCHITECTURE §13), which is
    # what lets it stand in for the test oracle's per-lane first-seen
    # sets without changing any batch outcome.
    keyed = np.flatnonzero(non_insert & (row >= 0))
    txn, tb, c = op_txn[keyed], table[keyed], col[keyed]
    ckey = engine.conflict_log.encode(
        tb, row[keyed], engine.flags.group_lookup(tb, c)
    )
    order, cell_starts = sorted_runs(ckey, txn, c)
    keyed, txn, ckey = keyed[order], txn[order], ckey[order]
    new_res = np.ones(order.size, dtype=bool)
    new_res[1:] = (ckey[1:] != ckey[:-1]) | (txn[1:] != txn[:-1])
    res_starts = np.flatnonzero(new_res)

    # Reservations: one (lane, key) per side, the head of each
    # reservation run that reserves on it.  An ADD is a
    # read-modify-write: it reserves on both sides (1 | 2); a
    # delayed-column ADD on neither.
    op_kind = kind[keyed]
    side = np.bitwise_or.reduceat(
        np.where(skip_delayed[keyed], 0, _SIDES[op_kind]), res_starts
    )

    def reserve(on: int) -> Reservations:
        head = res_starts[(side & on) > 0]
        lane = txn[head]
        return Reservations(lane, tids[lane], table[keyed[head]], ckey[head])

    batch.reads, batch.writes = reserve(1), reserve(2)

    # Columnar locals: the writes and adds, masked out of the same
    # order, resolved per cell run.
    new_cell = np.zeros(order.size, dtype=bool)
    new_cell[cell_starts] = True
    wa = np.flatnonzero(op_kind != OpKind.READ)
    batch.batch_locals.resolve_cells(
        Cells(op_txn, table, row, col, val), keyed[wa],
        op_kind[wa] == OpKind.WRITE, np.cumsum(new_cell)[wa], skip_delayed,
    )


def check_columns(db, table: np.ndarray, col: np.ndarray, locals_: GroupLocals) -> None:
    """Refuse the batch if an op (``table``, ``col``: the frame's
    columns) or an insert payload names a column its table lacks — here,
    before anything installs, as a read of one already fails in execute
    (write-back would stop half way).  One check per distinct (table,
    column) and (table, payload chunk) pair of the batch."""
    ncols = column_interner_size()
    seen = np.zeros((db.num_tables, ncols), dtype=bool)
    seen.reshape(-1)[table * ncols + col] = True
    ins = locals_.inserts
    chunks = np.zeros((db.num_tables, len(locals_.payloads)), dtype=bool)
    chunks[ins.table, ins.chunk] = True
    for t, c in zip(*np.nonzero(seen)):
        name = column_name(c)
        if name not in ("", KEY_COLUMN):  # insert and key-read ops
            db.table_by_id(int(t)).check_columns((name,))
    for t, c in zip(*np.nonzero(chunks)):
        db.table_by_id(int(t)).check_columns(locals_.payloads[c][0])


def open_log(
    engine, table_txns: dict[int, int], touched_rows: dict[int, np.ndarray], ctx
) -> None:
    """Size the conflict log for this batch — bucket sizes from
    ``table_txns`` (accessing transactions per table), the key space
    from the tables as the batch found them — and fault in the
    unified-memory pages behind ``touched_rows`` (accessed row slots
    per table).  Conflict keys can be encoded once this has run."""
    db = engine.database
    # Popularity verdicts drive this batch's bucket sizes.
    engine.last_heats = engine.hotspot.measure(table_txns)
    engine.conflict_log.begin_batch(engine.last_heats)

    # Unified memory: fault in the pages backing accessed rows.
    # Pages are touched in sorted order so the LRU tracker sees the
    # same sequence whichever collector built the row sets.
    if engine.memory_plan.mode is MemoryMode.UNIFIED:
        faults = 0
        for table_id in sorted(touched_rows):
            table = db.table_by_id(table_id)
            pages = np.unique(
                touched_rows[table_id] * table.schema.row_bytes
                // engine.device.config.um_page_bytes
            )
            faults += engine.device.pages.touch(table.name, pages)
        ctx.add_page_faults(faults)


def register_batch(engine, batch: Batch, ctx) -> None:
    """The execute stage's tail, whatever collected the ops: TID
    registration in the conflict log (the execution-phase atomics)."""
    reads, writes, inserts = batch.reads, batch.writes, batch.inserts
    log = engine.conflict_log
    ctx.add_instructions(REGISTER_INSTRUCTIONS * batch.total_ops)
    log.register_reads(reads.key, reads.tid, reads.table, ctx)
    log.register_writes(writes.key, writes.tid, writes.table, ctx)
    log.register_inserts(inserts.table, inserts.key, inserts.tid, ctx)
