"""Benchmark runners shared by every table/figure harness.

The paper measures TPS by running "5,000 transaction batches
back-to-back" at a fixed batch size, with aborted transactions merging
into later (still full) batches.  :func:`steady_state_run` reproduces
that: each round tops the scheduler up with fresh transactions so every
batch is full, and throughput is committed work over simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import LTPGEngine
from repro.core.stats import RunStats
from repro.errors import BenchmarkError
from repro.txn.batch import BatchScheduler


@dataclass(frozen=True)
class SteadyStateResult:
    """Aggregated outcome of a steady-state run."""

    run: RunStats
    #: device wall-clock of the whole run; under batch-to-batch
    #: pipelining this is less than the sum of per-batch latencies
    makespan_ns: float = 0.0
    #: metrics-registry snapshot when the engine ran with
    #: ``LTPGConfig.trace`` (None on untraced runs)
    metrics: dict | None = None

    @property
    def tps(self) -> float:
        if self.makespan_ns > 0:
            return self.run.total_committed / (self.makespan_ns * 1e-9)
        return self.run.throughput_tps

    @property
    def mtps(self) -> float:
        """Throughput in the paper's 10^6 TXs/s unit (makespan-based,
        so overlapped pipeline batches are not double-counted)."""
        return self.tps / 1e6

    @property
    def commit_rate(self) -> float:
        return self.run.mean_commit_rate

    @property
    def mean_latency_us(self) -> float:
        return self.run.mean_latency_ns / 1e3

    @property
    def mean_transfer_us(self) -> float:
        if not self.run.batches:
            return 0.0
        total = sum(b.transfer_ns for b in self.run.batches)
        return total / len(self.run.batches) / 1e3


def steady_state_run(
    engine: LTPGEngine,
    generator,
    batch_size: int,
    num_batches: int,
) -> SteadyStateResult:
    """Run ``num_batches`` full batches; retries merge with fresh load."""
    if num_batches <= 0:
        raise BenchmarkError("need at least one batch")
    scheduler = BatchScheduler(
        batch_size, retry_delay_batches=engine.config.effective_retry_delay
    )
    run = RunStats()
    start_ns = engine.device.elapsed_ns()
    for _ in range(num_batches):
        shortfall = batch_size - min(scheduler.eligible_backlog, batch_size)
        if shortfall > 0:
            scheduler.admit(generator.make_batch(shortfall))
        batch = scheduler.next_batch()
        result = engine.run_batch(batch)
        scheduler.requeue_aborted(result.aborted)
        run.add(result.stats)
    makespan = engine.device.elapsed_ns() - start_ns
    metrics = engine.metrics.snapshot() if engine.metrics is not None else None
    return SteadyStateResult(run=run, makespan_ns=makespan, metrics=metrics)


def steady_state_baseline_run(
    engine,
    generator,
    batch_size: int,
    num_batches: int,
) -> SteadyStateResult:
    """Steady-state driver for a :class:`BaselineEngine` (same topping-up
    semantics; retries are whatever the engine marked ABORTED)."""
    from repro.txn.transaction import TxnStatus, assign_tids

    if num_batches <= 0:
        raise BenchmarkError("need at least one batch")
    run = RunStats()
    pending: list = []
    next_tid = 0
    for _ in range(num_batches):
        if len(pending) < batch_size:
            fresh = generator.make_batch(batch_size - len(pending))
            next_tid = assign_tids(fresh, next_tid)
            pending.extend(fresh)
        batch = pending[:batch_size]
        pending = pending[batch_size:]
        stats = engine.run_batch(batch)
        run.add(stats)
        retries = sorted(
            (t for t in batch if t.status is TxnStatus.ABORTED),
            key=lambda t: t.tid,
        )
        pending = retries + pending
    return SteadyStateResult(run=run)
