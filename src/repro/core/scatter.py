"""The write-back's cell scatter: committed writes, adds and delayed
deltas all install through :func:`scatter_cells`."""

from __future__ import annotations

import numpy as np

from repro.storage.database import Database
from repro.txn.operations import column_name
from repro.xp.rows import run_ends, run_starts


def scatter_cells(
    db: Database,
    table_ids: np.ndarray,
    rows: np.ndarray,
    col_ids: np.ndarray,
    vals: np.ndarray,
    accumulate: bool,
    xp=None,
    residency=None,
) -> list[np.ndarray]:
    """Install flat per-cell values (interned column ids), one scatter
    per (table, column) segment — ``+=`` when ``accumulate``,
    assignment otherwise.  Returns each segment's row slots, segments
    in (table, column) order.

    The cells arrive grouped by table, ascending — the batch's key
    order leaves every cell record so — and each table's run splits by
    column with one mask per column it holds: no sort.  Within a
    segment the cells keep their arrival order, which nobody can see:
    callers pass WAW-disjoint assignments or commutative adds, and
    :meth:`~repro.core.delayed_update.DelayedUpdater.apply_arrays`
    only counts a segment's distinct rows.

    Where a segment lands depends on the array backend ``xp``, two
    ways.  On the host (numpy, or ``None``) it scatters straight into
    the table column.  On a device it scatters into the resident device
    column (``residency``, the engine's
    :class:`~repro.xp.residency.ResidencyManager`) and marks the host
    side stale — no round trip.  Neither the segment order nor the copy
    scattered into can change the snapshot (ARCHITECTURE §13).
    """
    if table_ids.size == 0:
        return []
    if (table_ids[1:] < table_ids[:-1]).any():
        raise ValueError("scatter_cells takes cells grouped by table, ascending")
    on_device = xp is not None and xp.is_device
    segments = []
    starts = run_starts(table_ids)
    for s, e in zip(starts.tolist(), run_ends(starts, table_ids.size).tolist()):
        table = db.table_by_id(int(table_ids[s]))
        run_cols = col_ids[s:e]
        for col_id in np.flatnonzero(np.bincount(run_cols)).tolist():
            here = run_cols == col_id
            seg_rows, seg_vals = rows[s:e][here], vals[s:e][here]
            cname = column_name(col_id)
            segments.append(seg_rows)
            if not on_device:
                target = table.column(cname)
                if accumulate:
                    np.add.at(target, seg_rows, seg_vals)
                else:
                    target[seg_rows] = seg_vals
                continue
            dev = residency.device_column(table, cname)
            idx = xp.from_host(seg_rows)
            val = xp.from_host(seg_vals)
            if accumulate:
                xp.scatter_add(dev, idx, val)
            else:
                xp.scatter(dev, idx, val)
            residency.mark_dirty(table, cname)
    return segments
