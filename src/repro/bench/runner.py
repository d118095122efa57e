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
from repro.txn.batch import BatchScheduler, drive


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
    engine,
    generator,
    batch_size: int,
    num_batches: int,
) -> SteadyStateResult:
    """Run ``num_batches`` full batches; retries merge with fresh load.

    ``engine`` is an :class:`LTPGEngine` or a
    :class:`~repro.baselines.base.BaselineEngine`.  LTPG retries after
    its configured delay and is clocked by its device's makespan; a
    baseline retries in the next batch, returns bare ``BatchStats`` and
    is clocked by the sum of its batch latencies.
    """
    if num_batches <= 0:
        raise BenchmarkError("need at least one batch")
    if not isinstance(engine, LTPGEngine):
        run = RunStats()
        for stats in drive(
            engine, BatchScheduler(batch_size), generator.make_batch, num_batches
        ):
            run.add(stats)
        return SteadyStateResult(run=run)
    scheduler = BatchScheduler(
        batch_size, retry_delay_batches=engine.config.effective_retry_delay
    )
    run = RunStats()
    start_ns = engine.device.elapsed_ns()
    for result in drive(engine, scheduler, generator.make_batch, num_batches):
        run.add(result.stats)
    makespan = engine.device.elapsed_ns() - start_ns
    metrics = engine.metrics.snapshot() if engine.metrics is not None else None
    return SteadyStateResult(run=run, makespan_ns=makespan, metrics=metrics)
