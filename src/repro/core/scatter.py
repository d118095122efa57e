"""The write-back's cell scatter: committed writes, adds and delayed
deltas all install through :func:`scatter_cells`."""

from __future__ import annotations

import numpy as np

from repro.storage.database import Database
from repro.txn.operations import column_name
from repro.xp import sorted_runs
from repro.xp.rows import run_ends


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
    """Install flat per-cell values (interned column ids): sort by
    (table, column), then one scatter per segment — ``+=`` when
    ``accumulate``, assignment otherwise.  Returns each segment's row
    slots.

    Where a segment lands depends on the array backend ``xp``, two
    ways.  On the host (numpy, or ``None``) it scatters straight into
    the table column.  On a device it scatters into the resident device
    column (``residency``, the engine's
    :class:`~repro.xp.residency.ResidencyManager`) and marks the host
    side stale — no round trip.  Callers pass WAW-disjoint assignments
    or commutative adds, so neither the segment order nor the copy
    scattered into can change the snapshot (ARCHITECTURE §13).
    """
    if table_ids.size == 0:
        return []
    order, starts = sorted_runs(table_ids, col_ids)
    table_ids, rows, col_ids, vals = (
        table_ids[order], rows[order], col_ids[order], vals[order]
    )
    ends = run_ends(starts, order.size)
    on_device = xp is not None and xp.is_device
    segments = []
    for s, e in zip(starts, ends):
        table = db.table_by_id(int(table_ids[s]))
        cname = column_name(int(col_ids[s]))
        segments.append(rows[s:e])
        if not on_device:
            target = table.column(cname)
            if accumulate:
                np.add.at(target, rows[s:e], vals[s:e])
            else:
                target[rows[s:e]] = vals[s:e]
            continue
        dev = residency.device_column(table, cname)
        idx = xp.from_host(rows[s:e])
        val = xp.from_host(vals[s:e])
        if accumulate:
            xp.scatter_add(dev, idx, val)
        else:
            xp.scatter(dev, idx, val)
        residency.mark_dirty(table, cname)
    return segments
