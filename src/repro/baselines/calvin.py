"""Calvin (Thomson et al., SIGMOD 2012): deterministic locking.

A single-threaded lock manager grants read/write locks in TID order
from pre-declared read/write-sets; worker threads execute transactions
once fully granted.  Functionally this equals serial TID-order
execution (which the shared helper performs); the *cost* comes from a
genuine schedule simulation:

* the lock manager is a serial bottleneck — every lock request costs
  ``grant_ns`` on one thread;
* a transaction starts when (a) the lock manager reaches it, (b) a
  worker core frees up, and (c) every item it writes has been released
  by earlier readers/writers and every item it reads by earlier writers;
* the batch latency is the makespan of that schedule.

Hot items therefore serialize whole chains of transactions, which is
why Calvin's TPC-C numbers collapse under contention in Table II.
"""

from __future__ import annotations

import heapq

from repro.baselines.base import BaselineEngine
from repro.core.stats import BatchStats
from repro.txn.operations import OpKind
from repro.txn.transaction import Transaction


def deterministic_order(transactions: list[Transaction]) -> list[Transaction]:
    """Calvin's agreed-upon total order: ascending TID (stable, so
    equal TIDs keep their admission order) — the order its lock
    manager grants locks in."""
    return sorted(transactions, key=lambda t: t.tid)


class CalvinEngine(BaselineEngine):
    """Deterministic lock-ordered execution."""

    name = "calvin"

    #: single-threaded lock-manager cost per lock request
    grant_ns: float = 155.0
    #: per-operation execution cost on a worker
    exec_op_ns: float = 420.0
    #: reconnaissance cost per op (Calvin needs read/write-sets up front)
    recon_op_ns: float = 90.0

    def run_batch(self, transactions: list[Transaction]) -> BatchStats:
        stats = self._new_stats(len(transactions))
        self._execute_serial(transactions, stats)

        # --- schedule simulation ---------------------------------------
        cores = [0.0] * self.cpu.num_cores
        heapq.heapify(cores)
        write_release: dict[tuple, float] = {}
        read_release: dict[tuple, float] = {}
        grant_clock = 0.0
        makespan = 0.0
        total_ops = 0
        for txn in deterministic_order(transactions):
            ops = txn.ops
            total_ops += len(ops)
            lock_items_r = set()
            lock_items_w = set()
            for op in ops:
                if op.kind == OpKind.INSERT:
                    continue
                if op.kind == OpKind.READ:
                    lock_items_r.add(op.item())
                else:
                    lock_items_w.add(op.item())
            lock_items_r -= lock_items_w
            grant_clock += (len(lock_items_r) + len(lock_items_w)) * self.grant_ns
            ready = grant_clock
            for item in lock_items_w:
                ready = max(
                    ready,
                    write_release.get(item, 0.0),
                    read_release.get(item, 0.0),
                )
            for item in lock_items_r:
                ready = max(ready, write_release.get(item, 0.0))
            core_free = heapq.heappop(cores)
            start = max(ready, core_free)
            duration = len(ops) * self.exec_op_ns + self.cpu.txn_overhead_ns
            end = start + duration
            heapq.heappush(cores, end)
            for item in lock_items_w:
                write_release[item] = end
            for item in lock_items_r:
                read_release[item] = max(read_release.get(item, 0.0), end)
            makespan = max(makespan, end)

        recon_ns = total_ops * self.recon_op_ns / max(1, self.cpu.num_cores)
        stats.latency_ns = recon_ns + makespan
        return stats
