"""Shared machinery for the eight comparison systems of Table II.

Every baseline executes the *same* stored procedures over the *same*
storage layer as LTPG.  The deterministic CPU systems (Calvin, BOHM,
PWV) and the eventually-serializable multicore systems (DBx1000,
Bamboo) produce results equivalent to serial TID-order execution, so
their functional path is exactly that — execute buffered, apply, next —
while their *cost* comes from genuine protocol bookkeeping (lock
schedules, version chains, dependency ranks) driven by the observed
operation streams.  Aria and the GPU systems implement their actual
batch protocols.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.stats import BatchStats, RunStats
from repro.errors import KeyNotFound, TransactionAborted
from repro.gpusim.config import CpuConfig
from repro.storage.database import Database
from repro.txn.batch import BatchScheduler, drive
from repro.txn.context import BufferedContext, apply_local_sets
from repro.txn.operations import OpKind, OpRecord
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Transaction, TxnStatus


@dataclass
class OpProfile:
    """Aggregate operation statistics for one executed batch."""

    reads: int = 0
    writes: int = 0  # WRITEs plus ADDs (both install a value)
    inserts: int = 0
    #: conflict-relevant accesses per item: item -> [tid of writers...]
    writers_per_item: dict = field(default_factory=dict)
    readers_per_item: dict = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes + self.inserts

    def max_write_chain(self) -> int:
        """Longest same-item writer chain (the serialization bottleneck
        for lock-ordered and rank-ordered execution)."""
        if not self.writers_per_item:
            return 0
        return max(len(v) for v in self.writers_per_item.values())

    def contended_write_ops(self) -> int:
        """Write operations that share their item with another writer."""
        return sum(
            len(v) for v in self.writers_per_item.values() if len(v) > 1
        )

    def record(self, txn_tid: int, op: OpRecord) -> None:
        if op.kind == OpKind.READ:
            self.reads += 1
            readers = self.readers_per_item.setdefault(op.item(), [])
            if not readers or readers[-1] != txn_tid:  # one entry per txn
                readers.append(txn_tid)
        elif op.kind == OpKind.INSERT:
            self.inserts += 1
        else:
            self.writes += 1
            writers = self.writers_per_item.setdefault(op.item(), [])
            if not writers or writers[-1] != txn_tid:
                writers.append(txn_tid)


class BaselineEngine(abc.ABC):
    """A comparison system: same functional contract as LTPG."""

    #: short system name used in benchmark tables
    name: str = "baseline"
    #: aborts retry in the next batch (:func:`repro.txn.batch.step`)
    retry_delay: int = 1

    def __init__(
        self,
        database: Database,
        procedures: ProcedureRegistry,
        cpu: CpuConfig | None = None,
    ):
        self.database = database
        self.procedures = procedures
        self.cpu = cpu or CpuConfig()
        self._batch_counter = 0

    # -- functional helpers -----------------------------------------------
    def _execute_serial(
        self, transactions: list[Transaction], stats: BatchStats
    ) -> OpProfile:
        """Execute and apply in TID order (serial-equivalent outcome for
        systems that commit everything); fills per-proc stats and
        returns the op profile that drives the cost model."""
        profile = OpProfile()
        for txn in sorted(transactions, key=lambda t: t.tid):
            txn.reset_for_execution()
            stats.total_by_proc[txn.procedure_name] += 1
            ctx = BufferedContext(self.database)
            proc = self.procedures.get(txn.procedure_name)
            try:
                proc(ctx, *txn.params)
            except (TransactionAborted, KeyNotFound):
                txn.status = TxnStatus.LOGIC_ABORTED
                txn.ops = ctx.ops
                stats.logic_aborted += 1
                stats.abort_reasons["logic"] += 1
                continue
            txn.ops = ctx.ops
            apply_local_sets(self.database, ctx.local)
            txn.status = TxnStatus.COMMITTED
            stats.committed += 1
            stats.committed_by_proc[txn.procedure_name] += 1
            for op in txn.ops:
                profile.record(txn.tid, op)
        return profile

    # -- protocol ------------------------------------------------------------
    @abc.abstractmethod
    def run_batch(self, transactions: list[Transaction]) -> BatchStats:
        """Process one batch; returns its stats.  Implementations must
        set ``latency_ns`` from their protocol cost model."""

    def _new_stats(self, n: int) -> BatchStats:
        stats = BatchStats(
            batch_index=self._batch_counter, num_txns=n, committed=0, aborted=0
        )
        self._batch_counter += 1
        return stats

    # -- driver ------------------------------------------------------------
    def run_transactions(
        self,
        transactions: list[Transaction],
        batch_size: int,
        max_batches: int = 1000,
    ) -> RunStats:
        """Admit, batch, retry aborts, aggregate — mirroring
        :meth:`repro.core.engine.LTPGEngine.run_transactions`."""
        scheduler = BatchScheduler(batch_size)
        scheduler.admit(transactions)
        run = RunStats()
        for stats in drive(self, scheduler, max_batches=max_batches):
            run.add(stats)
        return run


def per_core_ns(total_work_ns: float, cores: int) -> float:
    """Embarrassingly-parallel work spread over the core pool."""
    return total_work_ns / max(1, cores)
