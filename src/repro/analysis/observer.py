"""``LTPGConfig(sanitize=True)`` as a stage-boundary observer.

:class:`SanitizeObserver` records the table and conflict-log traffic of
the three kernel stages into the :class:`~repro.analysis.sanitizer
.Sanitizer` attached to the engine's device, inside the kernel epoch of
the stage it is called from (:class:`repro.core.batch.BatchObserver`;
the conflict log's own atomics record themselves through the kernel
context).

Addresses are conflict-granular — ``row * num_groups + group`` — so the
shadow cell matches the unit the WAW/RAW/WAR rules protect: a clean
engine is provably race-free at this granularity, and anything the
rules would miss shows up as a finding.  Thread ids are lane indices
(table traffic) or TIDs (conflict-log atomics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.sanitizer import AccessKind, Sanitizer

if TYPE_CHECKING:
    from repro.core.batch import Batch, Stage
    from repro.core.engine import LTPGEngine


class SanitizeObserver:
    """Shadow-access recording for one engine's batches."""

    def __init__(self, sanitizer: Sanitizer) -> None:
        self.sanitizer = sanitizer

    def stage_entered(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        if stage.name == "conflict":
            self._minima_reads(batch)
        elif stage.name == "writeback":
            self._installs(engine, batch)

    def stage_leaving(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        if stage.name == "execute":
            self._table_reads(engine, batch)

    def stage_synced(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        pass

    def batch_done(self, engine: LTPGEngine, batch: Batch) -> None:
        pass

    # -- what each kernel touched -----------------------------------------
    def _table_reads(self, engine: LTPGEngine, batch: Batch) -> None:
        """The execute kernel's snapshot reads, one per reservation."""
        for t in np.unique(batch.read_table_arr):
            m = batch.read_table_arr == t
            table = engine.database.table_by_id(int(t))
            num_groups = max(1, engine.flags.num_groups(int(t)))
            addr = batch.read_row_arr[m] * num_groups + batch.read_group_arr[m]
            self.sanitizer.record(
                f"table:{table.name}", addr, batch.read_txn_arr[m], AccessKind.READ
            )

    def _minima_reads(self, batch: Batch) -> None:
        """Conflict-kernel loads of the registered minima (plain reads;
        the atomicMin writes happened one sync point earlier)."""
        san = self.sanitizer
        if batch.write_keys.size:
            san.record(
                "conflict_log.write", batch.write_keys, batch.write_txn_arr,
                AccessKind.READ,
            )
            san.record(
                "conflict_log.read", batch.write_keys, batch.write_txn_arr,
                AccessKind.READ,
            )
        if batch.read_keys.size:
            san.record(
                "conflict_log.write", batch.read_keys, batch.read_txn_arr,
                AccessKind.READ,
            )

    def _installs(self, engine: LTPGEngine, batch: Batch) -> None:
        """The committed installs.  Plain writes for owned cells (the
        WAW rule guarantees a single committed writer per conflict
        group); atomic adds for delayed columns (commutative, multiple
        committers allowed)."""
        san = self.sanitizer
        bl, commit = batch.batch_locals, batch.commit

        def emit(
            tables: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            txns: np.ndarray, atomic: bool,
        ) -> None:
            if tables.size == 0:
                return
            groups = engine.flags.group_lookup(tables, cols)
            for table_id in np.unique(tables):
                m = tables == table_id
                table = engine.database.table_by_id(int(table_id))
                num_groups = max(1, engine.flags.num_groups(int(table_id)))
                san.record(
                    f"table:{table.name}",
                    rows[m] * num_groups + groups[m],
                    txns[m],
                    AccessKind.WRITE,
                    atomic=atomic,
                )

        w_keep = commit[bl.w_txn] if bl.w_txn.size else np.zeros(0, dtype=bool)
        a_keep = commit[bl.a_txn] if bl.a_txn.size else np.zeros(0, dtype=bool)
        d_keep = commit[bl.d_txn] if bl.d_txn.size else np.zeros(0, dtype=bool)
        emit(
            np.concatenate((bl.w_table[w_keep], bl.a_table[a_keep])),
            np.concatenate((bl.w_row[w_keep], bl.a_row[a_keep])),
            np.concatenate((bl.w_col[w_keep], bl.a_col[a_keep])),
            np.concatenate((bl.w_txn[w_keep], bl.a_txn[a_keep])),
            atomic=False,
        )
        emit(
            bl.d_table[d_keep], bl.d_row[d_keep], bl.d_col[d_keep],
            bl.d_txn[d_keep], atomic=True,
        )
        for txn_idx, table_id, key, _names, _vals in bl.iter_inserts(commit):
            table = engine.database.table_by_id(table_id)
            san.record(
                f"table:{table.name}:inserts", key, txn_idx,
                AccessKind.WRITE,
            )
