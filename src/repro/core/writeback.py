"""The write-back stage: install the committed lanes' buffered effects
into the snapshot."""

from __future__ import annotations

import numpy as np

from repro.core.batch import APPLY_INSTRUCTIONS, Batch
from repro.core.config import MemoryMode
from repro.core.scatter import scatter_cells


def writeback(engine, batch: Batch, ctx) -> None:
    """Install committed effects; leaves the read/write-set bytes of
    the copy-back transfer in ``batch.rwset_bytes``.

    Masked grouped scatters per (table, column) over the batch-wide
    columnar locals instead of one ``apply_local_sets`` call per
    transaction.  Safe because the WAW rule leaves at most one
    committed writer per (row, conflict-group): committed write
    cells are disjoint, committed adds commute, and each
    transaction's own write-kills-add ordering was already resolved
    when its local sets were built.

    Cells install owner subset by owner subset, in ascending shard
    order (``engine.partition``; one subset when unsharded).  The
    subsets are disjoint — one owner per row — so the result is
    byte-identical to one global scatter, and the delayed merge's cost
    agrees too: deltas sum, and the subsets partition the distinct
    target cells."""
    db = engine.database
    bl = batch.batch_locals
    commit = batch.commit
    # Only committed write-sets ship back for the CPU-side snapshot
    # merge (aborted transactions re-execute anyway), delayed deltas
    # included: the CPU must merge them into its primary copy.
    batch.rwset_bytes = int(bl.nbytes_by_txn[commit].sum()) + 16 * int(
        bl.delayed_count_by_txn[commit].sum()
    )
    w_keep = commit[bl.w_txn] if bl.w_txn.size else np.zeros(0, dtype=bool)
    a_keep = commit[bl.a_txn] if bl.a_txn.size else np.zeros(0, dtype=bool)
    d_keep = commit[bl.d_txn] if bl.d_txn.size else np.zeros(0, dtype=bool)
    cells = int(w_keep.sum()) + int(a_keep.sum())
    xp = engine._backend
    residency = engine._residency
    owner_subsets = engine.partition.owner_subsets
    for tables, rows, cols, vals, accumulate in (
        (bl.w_table[w_keep], bl.w_row[w_keep], bl.w_col[w_keep],
         bl.w_val[w_keep], False),
        (bl.a_table[a_keep], bl.a_row[a_keep], bl.a_col[a_keep],
         bl.a_val[a_keep], True),
    ):
        for m in owner_subsets(tables, rows):
            scatter_cells(
                db, tables[m], rows[m], cols[m], vals[m], accumulate,
                xp=xp, residency=residency,
            )
    # Inserts claim slots per table in (transaction, emission) order
    # — the scalar slot assignment — but install in bulk: keys that
    # already exist (or repeat within the committed batch; the
    # conflict phase guarantees a unique winner, this mirrors the
    # scalar get_row guard) drop out, the survivors take consecutive
    # slots, and the payload columns scatter per emission chunk.
    if bl.i_txn.size:
        # in *admission* order, not lane order: appended rows claim the
        # physical slots whatever the layout (slot order feeds the
        # secondary/ordered indexes, which later batches observe)
        order = np.lexsort((bl.i_seq, batch.rank[bl.i_txn]))
        order = order[commit[bl.i_txn[order]]]
    else:
        order = np.empty(0, dtype=np.int64)
    if order.size:
        meta = bl.i_meta
        nlen = np.fromiter(
            (len(m[0]) for m in meta), dtype=np.int64, count=len(meta)
        )
        i_tb = bl.i_table[order]
        i_keys = bl.i_key[order]
        i_chs = bl.i_chunk[order]
        i_pos = bl.i_pos[order]
        cells += order.size + int(nlen[i_chs].sum())
        for table_id in np.unique(i_tb):
            m = i_tb == table_id
            table = db.table_by_id(int(table_id))
            kt, ct, pt = i_keys[m], i_chs[m], i_pos[m]
            exists = (kt >= 0) & (kt < table._dense_limit)
            nd = np.flatnonzero(~exists)
            if nd.size:
                has = table.primary.__contains__
                hits = np.fromiter(
                    map(has, kt[nd].tolist()), dtype=bool, count=nd.size
                )
                exists[nd[hits]] = True
            keep = ~exists
            if kt.size > 1:
                first = np.zeros(kt.size, dtype=bool)
                first[np.unique(kt, return_index=True)[1]] = True
                keep &= first
            if not keep.any():
                continue
            ck, pk = ct[keep], pt[keep]
            rows = table.append_keys(kt[keep])
            for c in np.unique(ck):
                cm = ck == c
                names, vals = meta[int(c)]
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
    d_t, d_r = bl.d_table[d_keep], bl.d_row[d_keep]
    d_c, d_v = bl.d_col[d_keep], bl.d_val[d_keep]
    for m in owner_subsets(d_t, d_r):
        engine.delayed.apply_arrays(
            d_t[m], d_r[m], d_c[m], d_v[m], ctx, xp=xp, residency=residency,
        )
    if engine.memory_plan.mode is MemoryMode.UNIFIED and (
        w_keep.any() or a_keep.any()
    ):
        faults = 0
        t_all = np.concatenate((bl.w_table[w_keep], bl.a_table[a_keep]))
        r_all = np.concatenate((bl.w_row[w_keep], bl.a_row[a_keep]))
        for table_id in np.unique(t_all):
            table = db.table_by_id(int(table_id))
            row_bytes = table.schema.row_bytes
            pages = np.unique(
                r_all[t_all == table_id] * row_bytes
                // engine.device.config.um_page_bytes
            )
            faults += engine.device.memory.pages.touch(table.name, pages)
        ctx.add_page_faults(faults)
