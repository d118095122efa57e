"""Delayed update strategy for frequently-conflicting attributes
(paper §V-D).

ADD operations on designated hot columns (e.g. TPC-C ``W_YTD``) skip
conflict detection entirely: their deltas are buffered and merged at
write-back.  On the GPU the merge is a segmented reduction — threads of
one warp handling the same row broadcast their deltas, combine them with
a prefix sum, and the highest-lane thread writes the result — which the
simulator accounts as intra-warp shuffle instructions plus one global
write per distinct row.

Soundness precondition: within a batch, a delayed column may be accessed
*only* through ADD.  A READ or WRITE would observe or destroy
concurrently-buffered deltas without any conflict flag firing, so the
engine rejects such batches loudly (see ``LTPGEngine``).  Additions are
commutative and associative, so any merge order yields the serial
result.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.scatter import scatter_cells
from repro.gpusim.kernel import KernelContext
from repro.storage.database import Database
from repro.txn.operations import column_interner_size, intern_column

#: Shuffle/prefix-sum instructions per delta in the warp-level merge
#: (log2(32) rounds of shfl + add, plus mask bookkeeping).
_MERGE_INSTRUCTIONS_PER_DELTA = 12


class DelayedUpdater:
    """Buffers committed ADD deltas and merges them at write-back."""

    def __init__(
        self,
        database: Database,
        delayed_columns: frozenset[tuple[str, str]],
        enabled: bool = True,
    ):
        self._db = database
        self.enabled = enabled
        self._delayed: frozenset[tuple[int, str]] = frozenset(
            (database.table_id(table), column) for table, column in delayed_columns
        ) if enabled else frozenset()
        # Dense (table, interned-column) -> delayed? lookup for the
        # columnar hot path; sized to the interner and rebuilt lazily
        # when new column names appear.
        self._lut: np.ndarray | None = None

    def is_delayed(self, table_id: int, column: str) -> bool:
        """Does this column bypass conflict detection via delayed adds?"""
        return (table_id, column) in self._delayed

    def delayed_mask(self, table_ids: np.ndarray, col_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_delayed` over interned column ids."""
        if not self._delayed:
            return np.zeros(table_ids.size, dtype=bool)
        if self._lut is None or self._lut.shape[1] < column_interner_size():
            pairs = [
                (table_id, intern_column(column))
                for table_id, column in self._delayed
            ]
            lut = np.zeros(
                (self._db.num_tables, column_interner_size()), dtype=bool
            )
            for table_id, col_id in pairs:
                lut[table_id, col_id] = True
            self._lut = lut
        # one flat gather: cheaper than the two-index one
        return self._lut.ravel()[table_ids * self._lut.shape[1] + col_ids]

    @property
    def columns(self) -> frozenset[tuple[int, str]]:
        return self._delayed

    def apply(
        self,
        deltas: list[tuple[int, int, str, int]],
        ctx: KernelContext | None = None,
    ) -> int:
        """Merge ``(table_id, row, column, delta)`` records of committed
        transactions into the snapshot.  Returns distinct rows updated.
        """
        if not deltas:
            return 0
        grouped: dict[tuple[int, str], list[tuple[int, int]]] = defaultdict(list)
        for table_id, row, column, delta in deltas:
            grouped[(table_id, column)].append((row, delta))
        distinct_rows = 0
        for (table_id, column), pairs in grouped.items():
            rows = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
            vals = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
            target = self._db.table_by_id(table_id).column(column)
            np.add.at(target, rows, vals)
            distinct_rows += int(np.unique(rows).size)
        if ctx is not None:
            n = len(deltas)
            ctx.add_instructions(n * _MERGE_INSTRUCTIONS_PER_DELTA)
            ctx.add_shared_accesses(n)  # broadcast staging
            ctx.add_global_writes(distinct_rows)
        return distinct_rows

    def apply_arrays(
        self,
        table_ids: np.ndarray,
        rows: np.ndarray,
        col_ids: np.ndarray,
        deltas: np.ndarray,
        ctx: KernelContext | None = None,
        xp=None,
        residency=None,
    ) -> int:
        """Columnar twin of :meth:`apply`: merge flat per-cell delta
        arrays (interned column ids) with identical cost accounting.
        Addition commutes, so the grouped-scatter merge order cannot
        change the snapshot :meth:`apply` would produce.

        The deltas install through the write-back's one cell scatter
        (:func:`~repro.core.scatter.scatter_cells`, which also explains
        ``xp`` and ``residency``); the merge is charged one global
        write per distinct row of each (table, column) segment."""
        n = int(table_ids.size)
        if n == 0:
            return 0
        segments = scatter_cells(
            self._db, table_ids, rows, col_ids, deltas,
            accumulate=True, xp=xp, residency=residency,
        )
        distinct_rows = sum(int(np.unique(seg).size) for seg in segments)
        if ctx is not None:
            ctx.add_instructions(n * _MERGE_INSTRUCTIONS_PER_DELTA)
            ctx.add_shared_accesses(n)
            ctx.add_global_writes(distinct_rows)
        return distinct_rows
