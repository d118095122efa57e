"""The write-back's cell scatter: committed writes, adds and delayed
deltas all install through :func:`scatter_cells`."""

from __future__ import annotations

import numpy as np

from repro.storage.database import Database
from repro.txn.operations import column_name


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

    Where a segment lands depends on the array backend ``xp``.  Host
    backends (and ``None``) scatter straight into the table column.  A
    device backend with a :class:`~repro.xp.residency.ResidencyManager`
    scatters into the resident device column and marks the host side
    stale — no round trip.  A device backend without one ships the
    column down, scatters, and ships the merged column back: the
    snapshot's authoritative copy is host memory (the paper's CPU-side
    primary).  Callers pass WAW-disjoint assignments or commutative
    adds, so neither the segment order nor the copy scattered into can
    change the snapshot (ARCHITECTURE §13).
    """
    if table_ids.size == 0:
        return []
    order = np.lexsort((col_ids, table_ids))
    table_ids, rows, col_ids, vals = (
        table_ids[order], rows[order], col_ids[order], vals[order]
    )
    new = np.empty(table_ids.size, dtype=bool)
    new[0] = True
    new[1:] = (table_ids[1:] != table_ids[:-1]) | (col_ids[1:] != col_ids[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], table_ids.size)
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
        if residency is not None:
            dev = residency.device_column(table, cname)
        else:
            target = table.column(cname)
            dev = xp.from_host(target)
        idx = xp.from_host(rows[s:e])
        val = xp.from_host(vals[s:e])
        if accumulate:
            xp.scatter_add(dev, idx, val)
        else:
            xp.scatter(dev, idx, val)
        if residency is not None:
            residency.mark_dirty(table, cname)
        else:
            host = xp.to_host(dev)
            if not np.shares_memory(host, target):
                target[:] = host
    return segments
