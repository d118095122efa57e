"""The seed pipeline, kept as the test oracle.

:class:`ReferenceEngine` is an :class:`~repro.core.engine.LTPGEngine`
whose execute and write-back stages are the implementation the repo
started from: one procedure call per transaction into its own
``BufferedContext``, a per-op Python loop that collects reservations and
charges costs one ``OpRecord`` at a time, and a write-back that installs
each committed transaction's ``LocalSets`` with ``apply_local_sets`` and
merges delayed deltas through ``DelayedUpdater.apply``.  It builds no
``OpFrame`` and no columnar locals, so it shares neither the collector
nor the write-back with the engine it checks — only what sits around
them (the stage runner, conflict-log registration, the conflict stage,
result assembly).

Every observable must agree with the engine byte for byte: statuses,
abort reasons, ``txn.ops.raw``, every simulated time in ``BatchStats``,
and the database digest.  Host-only, no observers: the
configurations the engine must match *it* on, not the other way round.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.batch import (
    APPLY_INSTRUCTIONS,
    INSERT_GLOBAL_WRITES,
    OP_INSTRUCTIONS,
    READ_GLOBAL_READS,
    WRITE_GLOBAL_READS,
    WRITE_GLOBAL_WRITES,
    RangeReservations,
    Reservations,
)
from repro.core.collect import open_log, register_batch
from repro.core.config import MemoryMode
from repro.core.engine import LTPGEngine
from repro.errors import KeyNotFound, TransactionAborted, TransactionError
from repro.txn.context import BufferedContext, LocalSets, apply_local_sets
from repro.txn.decompose import plan
from repro.txn.operations import OpKind
from repro.txn.transaction import TxnStatus


def _as_arr(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _columns(rows: list[tuple], width: int) -> np.ndarray:
    """Same-width tuples as ``width`` int64 columns."""
    return np.ascontiguousarray(_as_arr(rows).reshape(len(rows), width).T)


class ReferenceEngine(LTPGEngine):
    """Per-transaction execute, per-op collect, per-transaction install."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        assert not self.observers, "the oracle builds no frame to observe"
        # Buffered effects of the batch in flight, execute -> write-back.
        self._locals: list[LocalSets] = []
        self._delayed_adds: list[list[tuple[int, int, str, int]]] = []

    # -- execute ----------------------------------------------------------
    def _run_one(self, txn) -> tuple[LocalSets, list, list]:
        """``(local sets, delayed deltas, range predicates)`` of one
        transaction run through its scalar procedure (the shared route
        stage already counted the attempt; assemble stamps the verdict)."""
        proc = self._resolve_procedure(txn.procedure_name)
        ctx = BufferedContext(self.database)
        try:
            proc(ctx, *txn.params)
        except (TransactionAborted, KeyNotFound):
            txn.status = TxnStatus.LOGIC_ABORTED
            txn.abort_reason = "logic"
            txn.ops = ctx.ops
            return LocalSets(), [], []
        txn.status = TxnStatus.EXECUTED
        txn.ops = ctx.ops
        local = ctx.local
        # Deltas on delayed columns leave the local set: the delayed
        # updater merges them, not apply_local_sets.
        delayed_locs = [
            loc for loc in local.adds if self.delayed.is_delayed(loc[0], loc[2])
        ]
        delayed = [(*loc, local.adds.pop(loc)) for loc in delayed_locs]
        return local, delayed, ctx.ranges

    def _execute(self, data, ctx) -> None:
        transactions = data.transactions
        db = self.database
        delayed = self.delayed
        group_of = self.flags.group_of
        self._locals, self._delayed_adds = [], []
        ranges_by_lane = []
        for txn in transactions:
            local, delayed_adds, ranges = self._run_one(txn)
            self._locals.append(local)
            self._delayed_adds.append(delayed_adds)
            ranges_by_lane.append(ranges)

        # Warp planning over the whole batch (grouped vs naive).
        exec_plan = plan(transactions, self.config.adaptive_warps)
        ctx.add_divergent_branches(exec_plan.divergent_branches)

        read: list[tuple[int, int, int, int, int]] = []  # table,row,group,tid,lane
        write: list[tuple[int, int, int, int, int]] = []
        ins: list[tuple[int, int, int, int]] = []  # table,key,tid,lane
        rng: list[tuple[int, int, int, int, int]] = []  # table,lo,hi,tid,lane
        table_txns: Counter = Counter()
        touched_rows: dict[int, set[int]] = {}
        data.logic_mask = np.zeros(len(transactions), dtype=bool)
        for idx, txn in enumerate(transactions):
            registers = txn.status is TxnStatus.EXECUTED
            data.logic_mask[idx] = not registers
            tables_seen: set[int] = set()
            # One reservation per (item, group) per transaction: the
            # local set holds a single entry per item, so repeated
            # column ops on one row register exactly once.
            seen_reads: set[tuple[int, int, int]] = set()
            seen_writes: set[tuple[int, int, int]] = set()
            for op in txn.ops:
                kind = op.kind
                ctx.add_instructions(OP_INSTRUCTIONS)
                if kind == OpKind.READ:
                    ctx.add_global_reads(READ_GLOBAL_READS)
                elif kind == OpKind.INSERT:
                    ctx.add_global_writes(INSERT_GLOBAL_WRITES)
                else:
                    ctx.add_global_reads(WRITE_GLOBAL_READS)
                    ctx.add_global_writes(WRITE_GLOBAL_WRITES)
                tables_seen.add(op.table_id)
                if op.row >= 0:
                    touched_rows.setdefault(op.table_id, set()).add(op.row)
                if not registers:
                    continue
                if kind == OpKind.INSERT:
                    ins.append((op.table_id, op.key, txn.tid, idx))
                    continue
                is_delayed = delayed.is_delayed(op.table_id, op.column)
                if kind == OpKind.ADD and is_delayed:
                    continue  # merged by the delayed updater, never checked
                if is_delayed:
                    raise TransactionError(
                        f"column {op.column!r} is delayed-update managed and "
                        f"may only be accessed with ADD in a batch"
                    )
                if op.row < 0:
                    # A read of the transaction's own insert: the insert
                    # reservation already guards this key, and the row
                    # has no slot yet to register against.
                    continue
                group = group_of(op.table_id, op.column)
                entry = (op.table_id, op.row, group)
                if kind == OpKind.READ:
                    if entry not in seen_reads:
                        seen_reads.add(entry)
                        read.append((*entry, txn.tid, idx))
                else:  # WRITE, or ADD treated as read-modify-write
                    if entry not in seen_writes:
                        seen_writes.add(entry)
                        write.append((*entry, txn.tid, idx))
                    if kind == OpKind.ADD and entry not in seen_reads:
                        # The RMW's read half participates in RAW checks.
                        seen_reads.add(entry)
                        read.append((*entry, txn.tid, idx))
            if registers:
                for table_id, lo, hi in ranges_by_lane[idx]:
                    rng.append((table_id, lo, hi, txn.tid, idx))
                    ordered = db.table_by_id(table_id).ordered
                    if ordered is not None:  # B-tree descent per range
                        ctx.add_global_reads(ordered.height)
                    tables_seen.add(table_id)
            for table_id in tables_seen:
                table_txns[table_id] += 1

        open_log(
            self,
            dict(table_txns),
            {t: _as_arr(sorted(rows)) for t, rows in touched_rows.items()},
            ctx,
        )

        def reservations(entries: list[tuple]) -> Reservations:
            # the conflict log takes registrations grouped by key, and
            # (table, row, group) order is conflict-key order
            table, row, group, tid, lane = _columns(sorted(entries), 5)
            key = self.conflict_log.encode(table, row, group)
            return Reservations(lane, tid, table, key)

        data.reads, data.writes = reservations(read), reservations(write)
        table, key, tid, lane = _columns(ins, 4)
        data.inserts = Reservations(lane, tid, table, key)
        table, lo, hi, tid, lane = _columns(rng, 5)
        data.ranges = RangeReservations(lane, tid, table, lo, hi)
        register_batch(self, data, ctx)

    # -- write-back -------------------------------------------------------
    def _writeback(self, data, ctx) -> None:
        transactions, committed_mask = data.transactions, data.commit
        db = self.database
        rwset_bytes = 0
        cells = 0
        delayed_deltas: list[tuple[int, int, str, int]] = []
        written_rows: dict[int, set[int]] = {}
        for idx, txn in enumerate(transactions):
            if not committed_mask[idx] or txn.status is TxnStatus.LOGIC_ABORTED:
                continue
            local = self._locals[idx]
            delayed_adds = self._delayed_adds[idx]
            # Only committed write-sets ship back for the CPU-side
            # snapshot merge; aborted transactions re-execute anyway.
            # Delayed deltas are part of the shipped set too (the CPU
            # must merge them into its primary copy).
            rwset_bytes += local.nbytes + 16 * len(delayed_adds)
            apply_local_sets(db, local)
            cells += len(local.writes) + len(local.adds)
            for values in local.inserts.values():
                cells += 1 + len(values)
            delayed_deltas.extend(delayed_adds)
            if self.memory_plan.mode is MemoryMode.UNIFIED:
                for table_id, row, _column in (*local.writes, *local.adds):
                    written_rows.setdefault(table_id, set()).add(row)
        ctx.add_global_writes(cells)
        ctx.add_instructions(APPLY_INSTRUCTIONS * max(1, cells))
        self.delayed.apply(delayed_deltas, ctx)
        if written_rows:
            # Sorted tables and pages: the LRU tracker must see the
            # sequence the engine's write-back produces.
            faults = 0
            for table_id in sorted(written_rows):
                table = db.table_by_id(table_id)
                pages = np.unique(
                    _as_arr(sorted(written_rows[table_id]))
                    * table.schema.row_bytes
                    // self.device.config.um_page_bytes
                )
                faults += self.device.pages.touch(table.name, pages)
            ctx.add_page_faults(faults)
        data.rwset_bytes = rwset_bytes


#: The engine's table with the two stages above swapped in.
_OWN = {"execute": ReferenceEngine._execute, "writeback": ReferenceEngine._writeback}
ReferenceEngine.STAGES = tuple(
    stage._replace(run=_OWN.get(stage.name, stage.run))
    for stage in LTPGEngine.STAGES
)
