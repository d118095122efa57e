"""The execute stage's collector: one pass over the batch's op frame
builds the reservations, charges the per-op costs and registers every
TID in the conflict log."""

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
)
from repro.core.config import MemoryMode
from repro.errors import TransactionError
from repro.txn.batch_context import pack_sort_key
from repro.txn.decompose import plan_arrays
from repro.txn.operations import NUM_OP_KINDS, OpKind, column_name


def collect_columnar(engine, batch: Batch, ctx):
    """Batch-wide columnar op collection.

    One flat ``(n_ops, 6)`` int64 matrix feeds everything: warp
    planning, ``np.bincount`` cost accounting, lexsort reservation
    dedup, touched-page collection, and table popularity counts.
    Returns ``(table_txns, touched_rows)`` for :func:`register_batch`.
    """
    db = engine.database
    transactions = batch.transactions
    n = len(transactions)
    mat, counts = batch.frame.mat, batch.frame.counts
    tids = np.fromiter(batch.tids, dtype=np.int64, count=n)
    registers = ~batch.logic_mask
    total = mat.shape[0]
    kind = mat[:, 0]
    table = mat[:, 1]
    row = mat[:, 2]
    col = mat[:, 3]
    key = mat[:, 5]
    op_txn = np.repeat(np.arange(n, dtype=np.int64), counts)

    # Warp planning over the whole batch (grouped vs naive).
    exec_plan = plan_arrays(kind, table, counts, engine.config.adaptive_warps)
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
                range_rows.append((table_id, lo, hi, txn.tid, i))
                ordered = db.table_by_id(table_id).ordered
                if ordered is not None:  # B-tree descent per range
                    ctx.add_global_reads(ordered.height)
    ra = np.asarray(range_rows, dtype=np.int64).reshape(len(range_rows), 5)
    batch.range_table_arr = ra[:, 0]
    batch.range_lo_arr = ra[:, 1]
    batch.range_hi_arr = ra[:, 2]
    batch.range_tid_arr = ra[:, 3]
    batch.range_txn_arr = ra[:, 4]

    # Distinct (txn, table) pairs -> per-table accessing-txn counts.
    # The pair space is tiny (n x num_tables), so a scatter into a
    # boolean grid beats a sort-based np.unique.
    num_tables = db.num_tables
    seen_pairs = np.zeros((n, num_tables), dtype=bool)
    seen_pairs.reshape(-1)[op_txn * num_tables + table] = True
    if range_rows:
        seen_pairs[ra[:, 4], ra[:, 0]] = True
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

    # Insert reservations (registering transactions only).
    reg_op = registers[op_txn]
    ins_mask = reg_op & (kind == OpKind.INSERT)
    batch.ins_table_arr = table[ins_mask]
    batch.ins_key_arr = key[ins_mask]
    batch.ins_txn_arr = op_txn[ins_mask]
    batch.ins_tid_arr = tids[batch.ins_txn_arr]

    # Delayed-column discipline: within a batch those columns may
    # only be touched through ADD (checked before the own-insert
    # row filter, exactly like the test oracle's per-op loop).
    non_insert = reg_op & (kind != OpKind.INSERT)
    is_add = kind == OpKind.ADD
    if engine.delayed.columns:
        delayed_ops = engine.delayed.delayed_mask(table, col)
        bad = non_insert & delayed_ops & ~is_add
        if bad.any():
            offender = column_name(int(col[np.flatnonzero(bad)[0]]))
            raise TransactionError(
                f"column {offender!r} is delayed-update managed and "
                f"may only be accessed with ADD in a batch"
            )
        skip_delayed = delayed_ops & is_add
    else:
        skip_delayed = np.zeros(total, dtype=bool)

    # Reservation dedup: one (txn, table, row, group) per side.
    # Rows < 0 are reads of the transaction's own insert — the
    # insert reservation already guards that key.
    candidate = non_insert & ~skip_delayed & (row >= 0)
    group = engine.flags.group_lookup(table, col)
    read_sel = candidate & ((kind == OpKind.READ) | is_add)
    write_sel = candidate & ((kind == OpKind.WRITE) | is_add)
    read_res, write_res = _dedup_reservations_two_sided(
        op_txn, table, row, group, candidate, read_sel, write_sel
    )
    (
        batch.read_table_arr,
        batch.read_row_arr,
        batch.read_group_arr,
        batch.read_txn_arr,
    ) = read_res
    batch.read_tid_arr = tids[batch.read_txn_arr]
    (
        batch.write_table_arr,
        batch.write_row_arr,
        batch.write_group_arr,
        batch.write_txn_arr,
    ) = write_res
    batch.write_tid_arr = tids[batch.write_txn_arr]
    return table_txns, touched_rows


def register_batch(
    engine,
    batch: Batch,
    table_txns: dict[int, int],
    touched_rows: dict[int, np.ndarray],
    ctx,
) -> None:
    """The execute stage's tail, whatever collected the ops: bucket
    sizes from ``table_txns`` (accessing transactions per table),
    unified-memory faults for ``touched_rows`` (accessed row slots
    per table), then TID registration in the conflict log."""
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
            faults += engine.device.memory.pages.touch(table.name, pages)
        ctx.add_page_faults(faults)

    # TID registration (the execution-phase atomics).
    batch.read_keys = engine.conflict_log.encode(
        batch.read_table_arr, batch.read_row_arr, batch.read_group_arr
    )
    batch.write_keys = engine.conflict_log.encode(
        batch.write_table_arr, batch.write_row_arr, batch.write_group_arr
    )
    ctx.add_instructions(
        REGISTER_INSTRUCTIONS
        * (batch.read_keys.size + batch.write_keys.size + batch.ins_key_arr.size)
    )
    engine.conflict_log.register_reads(
        batch.read_keys, batch.read_tid_arr, batch.read_table_arr, ctx
    )
    engine.conflict_log.register_writes(
        batch.write_keys, batch.write_tid_arr, batch.write_table_arr, ctx
    )
    engine.conflict_log.register_inserts(
        batch.ins_table_arr, batch.ins_key_arr, batch.ins_tid_arr, ctx
    )


def _dedup_reservations_two_sided(
    op_txn, table, row, group, candidate, read_sel, write_sel
):
    """Both sides' reservation dedups from ONE sort of the candidate
    ops.  Read and write selections are subsets of ``candidate`` (adds
    appear in both), so sorting the candidates once and taking each
    (txn, table, row, group) run's first read-side and first write-side
    entry matches two independent :func:`_dedup_reservations` passes."""
    t = op_txn[candidate]
    if t.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return (
            (empty, empty.copy(), empty.copy(), empty.copy()),
            (empty.copy(), empty.copy(), empty.copy(), empty.copy()),
        )
    tb = table[candidate]
    r = row[candidate]
    g = group[candidate]
    packed = pack_sort_key(t, tb, r, g)
    if packed is None:
        return (
            _dedup_reservations(op_txn, table, row, group, read_sel),
            _dedup_reservations(op_txn, table, row, group, write_sel),
        )
    order = np.argsort(packed, kind="stable")
    ps = packed[order]
    new = np.empty(ps.size, dtype=bool)
    new[0] = True
    new[1:] = ps[1:] != ps[:-1]
    run = np.cumsum(new) - 1
    t, tb, r, g = t[order], tb[order], r[order], g[order]
    out = []
    for side in (read_sel, write_sel):
        si = np.flatnonzero(side[candidate][order])
        if si.size:
            runs = run[si]
            keep = np.empty(si.size, dtype=bool)
            keep[0] = True
            keep[1:] = runs[1:] != runs[:-1]
            sel = si[keep]
            out.append((tb[sel], r[sel], g[sel], t[sel]))
        else:
            empty = np.empty(0, dtype=np.int64)
            out.append((empty, empty.copy(), empty.copy(), empty.copy()))
    return out[0], out[1]


def _dedup_reservations(op_txn, table, row, group, mask):
    """One reservation per (txn, table, row, group) among masked ops.

    Lexsort the candidates and keep each first occurrence.  Every kept
    field is part of the sort key, so which duplicate survives does not
    matter; downstream consumers (atomicMin registration, per-txn
    bincounts, witness sets) are all order-insensitive, which is what
    lets this sorted dedup stand in for the test oracle's first-seen
    sets without changing any batch outcome.
    """
    t = op_txn[mask]
    if t.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    tb = table[mask]
    r = row[mask]
    g = group[mask]
    packed = pack_sort_key(t, tb, r, g)
    if packed is not None:
        order = np.argsort(packed, kind="stable")
        ps = packed[order]
        keep = np.empty(ps.size, dtype=bool)
        keep[0] = True
        keep[1:] = ps[1:] != ps[:-1]
        t, tb, r, g = t[order], tb[order], r[order], g[order]
    else:
        order = np.lexsort((g, r, tb, t))
        t, tb, r, g = t[order], tb[order], r[order], g[order]
        keep = np.empty(t.size, dtype=bool)
        keep[0] = True
        keep[1:] = (
            (t[1:] != t[:-1])
            | (tb[1:] != tb[:-1])
            | (r[1:] != r[:-1])
            | (g[1:] != g[:-1])
        )
    return tb[keep], r[keep], g[keep], t[keep]
