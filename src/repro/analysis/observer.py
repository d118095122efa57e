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
from repro.txn.batch_context import Cells

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
        reads = batch.reads
        for t in np.unique(reads.table):
            of_table = reads.take(reads.table == t)
            table = engine.database.table_by_id(int(t))
            num_groups = max(1, engine.flags.num_groups(int(t)))
            self.sanitizer.record(
                f"table:{table.name}",
                of_table.row * num_groups + of_table.group,
                of_table.txn,
                AccessKind.READ,
            )

    def _minima_reads(self, batch: Batch) -> None:
        """Conflict-kernel loads of the registered minima (plain reads;
        the atomicMin writes happened one sync point earlier)."""
        san = self.sanitizer
        reads, writes = batch.reads, batch.writes
        if writes.size:
            san.record("conflict_log.write", writes.key, writes.txn, AccessKind.READ)
            san.record("conflict_log.read", writes.key, writes.txn, AccessKind.READ)
        if reads.size:
            san.record("conflict_log.write", reads.key, reads.txn, AccessKind.READ)

    def _installs(self, engine: LTPGEngine, batch: Batch) -> None:
        """The committed installs.  Plain writes for owned cells (the
        WAW rule guarantees a single committed writer per conflict
        group); atomic adds for delayed columns (commutative, multiple
        committers allowed)."""
        san = self.sanitizer
        bl, commit = batch.batch_locals, batch.commit

        def emit(cells: Cells, atomic: bool) -> None:
            cells = cells.take(commit[cells.txn])
            if cells.size == 0:
                return
            groups = engine.flags.group_lookup(cells.table, cells.col)
            for table_id in np.unique(cells.table):
                m = cells.table == table_id
                table = engine.database.table_by_id(int(table_id))
                num_groups = max(1, engine.flags.num_groups(int(table_id)))
                san.record(
                    f"table:{table.name}",
                    cells.row[m] * num_groups + groups[m],
                    cells.txn[m],
                    AccessKind.WRITE,
                    atomic=atomic,
                )

        emit(Cells.concat([bl.writes, bl.adds]), atomic=False)
        emit(bl.delayed, atomic=True)
        # in the order the write-back claims their slots
        ins = bl.inserts.take(bl.inserts.install_order(commit))
        for txn_idx, table_id, key in zip(
            ins.txn.tolist(), ins.table.tolist(), ins.key.tolist()
        ):
            table = engine.database.table_by_id(table_id)
            san.record(
                f"table:{table.name}:inserts", key, txn_idx,
                AccessKind.WRITE,
            )
