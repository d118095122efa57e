"""The write-back stage: install the committed lanes' buffered effects
into the snapshot."""

from __future__ import annotations

import numpy as np

from repro.core.batch import APPLY_INSTRUCTIONS, Batch
from repro.core.config import MemoryMode
from repro.core.scatter import scatter_cells
from repro.xp import sorted_runs


def writeback(engine, batch: Batch, ctx) -> None:
    """Install committed effects; leaves the read/write-set bytes of
    the copy-back transfer in ``batch.rwset_bytes``.

    Masked grouped scatters per (table, column) over the batch-wide
    columnar locals instead of one ``apply_local_sets`` call per
    transaction.  Safe because the WAW rule leaves at most one
    committed writer per (row, conflict-group): committed write
    cells are disjoint, committed adds commute, and each
    transaction's own write-kills-add ordering was already resolved
    when its local sets were built."""
    db = engine.database
    bl = batch.batch_locals
    commit = batch.commit
    # Only committed write-sets ship back for the CPU-side snapshot
    # merge (aborted transactions re-execute anyway), delayed deltas
    # included: the CPU must merge them into its primary copy.
    batch.rwset_bytes = int(bl.nbytes_by_txn[commit].sum()) + 16 * int(
        bl.delayed_count_by_txn[commit].sum()
    )
    writes = bl.writes.take(commit[bl.writes.txn])
    adds = bl.adds.take(commit[bl.adds.txn])
    delayed = bl.delayed.take(commit[bl.delayed.txn])
    cells = writes.size + adds.size
    xp = engine._backend
    residency = engine._residency
    for part, accumulate in ((writes, False), (adds, True)):
        scatter_cells(
            db, part.table, part.row, part.col, part.val, accumulate,
            xp=xp, residency=residency,
        )
    # Inserts claim slots per table in (transaction, emission) order
    # — the scalar slot assignment — but install in bulk: keys that
    # already exist (or repeat within the committed batch; the
    # conflict phase guarantees a unique winner, this mirrors the
    # scalar get_row guard) drop out, the survivors take consecutive
    # slots, and the payload columns scatter per emission chunk.
    ins = bl.inserts.take(bl.inserts.install_order(commit))
    if ins.size:
        payloads = bl.payloads
        nlen = np.fromiter(
            (len(names) for names, _ in payloads), dtype=np.int64,
            count=len(payloads),
        )
        cells += ins.size + int(nlen[ins.chunk].sum())
        for table_id in np.unique(ins.table):
            m = ins.table == table_id
            table = db.table_by_id(int(table_id))
            kt, ct, pt = ins.key[m], ins.chunk[m], ins.pos[m]
            keep = table.rows_of_keys(kt) < 0
            if kt.size > 1:
                # the stable sort leads each key's run with its first
                # occurrence
                order, starts = sorted_runs(kt)
                first = np.zeros(kt.size, dtype=bool)
                first[order[starts]] = True
                keep &= first
            if not keep.any():
                continue
            ck, pk = ct[keep], pt[keep]
            rows = table.append_keys(kt[keep])
            for c in np.unique(ck):
                cm = ck == c
                names, vals = payloads[int(c)]
                block = vals[pk[cm]]
                trows = rows[cm]
                for j, name in enumerate(names):
                    # freshly claimed slots: write host-side without
                    # fencing (note_appended mirrors them below)
                    table.host_column(name)[trows] = block[:, j]
            table.index_appended(rows)
            if residency is not None:
                residency.note_appended(table, rows)
    ctx.add_global_writes(cells)
    ctx.add_instructions(APPLY_INSTRUCTIONS * max(1, cells))
    engine.delayed.apply_arrays(
        delayed.table, delayed.row, delayed.col, delayed.val, ctx,
        xp=xp, residency=residency,
    )
    if engine.memory_plan.mode is MemoryMode.UNIFIED and (writes.size or adds.size):
        faults = 0
        t_all = np.concatenate((writes.table, adds.table))
        r_all = np.concatenate((writes.row, adds.row))
        for table_id in np.unique(t_all):
            table = db.table_by_id(int(table_id))
            row_bytes = table.schema.row_bytes
            pages = np.unique(
                r_all[t_all == table_id] * row_bytes
                // engine.device.config.um_page_bytes
            )
            faults += engine.device.pages.touch(table.name, pages)
        ctx.add_page_faults(faults)
