"""The LTPG engine: one batch through one table of stages.

One :meth:`LTPGEngine.run_batch` call processes a batch exactly as the
paper's Algorithm 1 does — a fixed list of kernels separated by
``cudaDeviceSynchronize`` — with the host's share on either side:

1. **route** — log the batch, ship its parameters host -> device.
2. **execute kernel** — every transaction runs against the snapshot,
   buffering effects in local sets and registering its TID in the
   conflict log (``atomicMin`` per accessed item, with dynamic hash
   buckets sizing the atomic fan-out).
3. **conflict kernel** — WAW/RAW/WAR verdicts per transaction from the
   logged minima, then the deterministic commit rule (with optional
   logical reordering).
4. **writeback kernel** — committed local sets install into the
   snapshot; delayed commutative adds merge via warp prefix sums.
5. **assemble** — read/write sets and flags come back device -> host
   and become the :class:`BatchResult`.
6. **log** — the commit decisions join the batch's log entry.

:data:`STAGES` is that table and :meth:`LTPGEngine.run_batch` the one
loop that walks it: it launches a kernel stage's kernel and closing
sync, stamps the simulated, host and transfer-ledger clocks into the
batch record (:class:`~repro.core.batch.Batch`), calls the observers
(``config.trace``, a test's fault injector) at the stage's boundaries,
and owns the failure path.

The stages run functionally in Python/NumPy while recording hardware
events; the simulated clock yields latency and throughput.  Aborted
transactions keep their TIDs and are re-queued by the caller:
:func:`repro.txn.batch.step`, which both :func:`~repro.txn.batch.drive`
and the serve loop run every cut through; an empty cut never reaches
the engine, so its batch index counts the batches that ran.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Iterator

from repro.core.assemble import BatchResult, assemble
from repro.core.batch import TXN_PARAM_BYTES, Batch, BatchObserver, Stage, StageClocks
from repro.core.config import LTPGConfig
from repro.core.conflict import detect
from repro.core.conflict_log import ConflictLog
from repro.core.delayed_update import DelayedUpdater
from repro.core.execute import execute
from repro.core.hotspot import HotspotDetector, TableHeat
from repro.core.memory_modes import (
    MemoryPlan,
    resolve_memory_mode,
    transfer_latency_factor,
)
from repro.core.split_flags import FlagGroups
from repro.core.stats import BatchStats, RunStats
from repro.core.writeback import writeback
from repro.errors import TransactionError
from repro.gpusim.device import DEFAULT_STREAM, Device
from repro.gpusim.kernel import KernelContext
from repro.gpusim.stream import Event
from repro.storage.database import Database
from repro.storage.wal import BatchLog
from repro.txn.batch import BatchScheduler, drive
from repro.txn.procedures import Procedure, ProcedureRegistry
from repro.txn.transaction import Transaction
from repro.xp import ResidencyManager, get_backend


def _route(engine: LTPGEngine, batch: Batch, ctx) -> None:
    """Log the batch — recovery replays what ran — and ship its
    parameters host -> device (the h2d leg).  The lanes were read into
    columns, and stamped, as the batch was built (:class:`Batch`)."""
    transactions = batch.transactions
    block = batch.tids, batch.group_ids, batch.group_names, batch.lengths, batch.flat
    engine.batch_log.append_batch(batch.index, transactions, block)
    batch.clean = True
    device = engine.device
    h2d = device.stream(engine.h2d_stream)
    compute = device.stream(engine.compute_stream)
    # Double-buffered inputs (§V-E): the upload may not start before the
    # previous batch's kernels began, or the copy stream runs ever
    # further ahead of compute and the batch's latency with it.  Clamped
    # to the compute clock, so a rewound timeline never stalls; a no-op
    # on one stream.
    h2d.advance_to(min(engine._kernels_began_ns, compute.time_ns))
    batch.start_ns = h2d.time_ns
    h2d_bytes = len(transactions) * TXN_PARAM_BYTES
    batch.transfer_ns = device.copy(
        int(h2d_bytes * transfer_latency_factor(engine.memory_plan)),
        "h2d", name="params", stream=engine.h2d_stream,
    )
    compute.wait_event(h2d.record_event(Event("h2d_done")))
    engine._kernels_began_ns = compute.time_ns


def _log_outcome(engine: LTPGEngine, batch: Batch, ctx) -> None:
    """The commit decisions join the batch's log entry."""
    engine.batch_log.record_outcome(
        batch.index,
        batch.tids[batch.commit],
        batch.tids[~(batch.commit | batch.logic_mask)],
    )


#: A batch's stages, in order.
STAGES: tuple[Stage, ...] = (
    Stage("route", _route),
    Stage("execute", execute, threads=lambda b: len(b.transactions)),
    Stage("conflict", detect, threads=lambda b: b.total_ops),
    Stage("writeback", writeback, threads=lambda b: int(b.commit.sum()), installs=True),
    Stage("assemble", assemble),
    Stage("log", _log_outcome),
)


class LTPGEngine:
    """Deterministic-OCC batch transaction processing on one device."""

    #: The stage table :meth:`run_batch` walks (the test oracle swaps
    #: its own execute and write-back in).
    STAGES = STAGES

    def __init__(
        self,
        database: Database,
        procedures: ProcedureRegistry,
        config: LTPGConfig | None = None,
        device: Device | None = None,
    ):
        self.database = database
        self.procedures = procedures
        self.config = config = config or LTPGConfig()
        self.device = device or Device()
        self.flags = FlagGroups(
            database, config.all_split_columns(), enabled=config.split_flags
        )
        self.delayed = DelayedUpdater(
            database, config.delayed_columns, enabled=config.delayed_update
        )
        #: The array backend the stages compute on (:mod:`repro.xp`) and,
        #: iff it is a device, the snapshot resident on it — every
        #: column access is the host column or the resident one, by
        #: ``_backend.is_device`` and nothing a caller sets.
        self._backend = get_backend(config.array_backend)
        self._residency = (
            ResidencyManager(self._backend, database)
            if self._backend.is_device else None
        )
        self.conflict_log = ConflictLog(
            database, self.flags,
            dynamic_buckets=config.dynamic_buckets, xp=self._backend,
        )
        self.hotspot = HotspotDetector(database, config.hot_tables)
        self.memory_plan: MemoryPlan = resolve_memory_mode(
            config, database, self.device
        )
        #: The overlay, as a stage-boundary observer (empty unless
        #: configured; imported lazily so the engine has no trace-layer
        #: dependency when it is off): ``tracer`` / ``metrics`` are the
        #: span recorder and registry under ``config.trace``.
        observers: list[BatchObserver] = []
        self.tracer = self.metrics = None
        if config.trace:
            from repro.trace import MetricsRegistry, Tracer
            from repro.trace.observer import TraceObserver

            self.tracer = Tracer()
            self.metrics = MetricsRegistry()
            self.device.attach_tracer(self.tracer)
            observers.append(TraceObserver(self.tracer, self.metrics))
        self.observers: tuple[BatchObserver, ...] = tuple(observers)
        self.batch_log = BatchLog()
        self.last_heats: dict[int, TableHeat] = {}
        # What the stage runner measured on the most recent batch.
        # Deliberately *not* part of BatchStats: the simulated-time
        # stats must stay byte-identical between the engine and the
        # test oracle, and host timings never are.
        self._clocks = StageClocks()
        # The batch-to-batch pipeline (§V-E) is three streams, so batch
        # n+1's upload overlaps batch n's kernels and its aborts miss
        # the batch already in flight: they retry two batches later.
        self.h2d_stream, self.compute_stream, self.d2h_stream = (
            ("h2d", "compute", "d2h") if config.pipelined else (DEFAULT_STREAM,) * 3
        )
        #: how many batches later :func:`~repro.txn.batch.step` re-queues
        #: an abort
        self.retry_delay = config.effective_retry_delay
        #: where the last batch's kernels began: the next upload's gate
        self._kernels_began_ns = 0.0
        self._batch_counter = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the device-resident snapshot: dirty columns fence
        back to host, the device copies are dropped and the tables
        unhooked.  Idempotent, and a no-op on the host backend; a batch
        run after ``close`` uploads again."""
        if self._residency is not None:
            self._residency.detach()

    def __enter__(self) -> LTPGEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def last_host_phase_s(self) -> dict[str, float]:
        """Host wall-clock seconds per stage of the last batch."""
        return self._clocks.host_s

    @property
    def last_transfers(self) -> dict[str, int]:
        """Transfer-ledger deltas of the last batch (zero on numpy)."""
        return self._clocks.total_transfers()

    @property
    def last_phase_transfers(self) -> dict[str, dict[str, int]]:
        """Last batch's ledger deltas split by kernel stage
        (``execute``/``conflict``/``writeback`` plus ``other`` for
        host-stage traffic like the full-sync fence)."""
        return self._clocks.phase_transfers()

    def reset_run_state(self) -> None:
        """Rewind every run-scoped clock and counter so the next batch
        starts a fresh timeline at ``t=0``.

        :meth:`Device.reset_clock`'s contract, extended to the whole
        engine: the stream clocks, tracer spans, the metrics registry,
        the batch counter (span/stat names embed batch indices), the
        batch log and the last batch's stage clocks.  Database state
        and device allocations survive — they model persistent state,
        not run history.  Back-to-back serve runs reset through here
        must produce bit-identical traces (pinned by
        ``tests/test_trace_observability.py``).
        """
        self.device.reset_clock()
        if self.tracer is not None:
            self.tracer.reset()
        if self.metrics is not None:
            self.metrics.reset()
        self._batch_counter = 0
        self.batch_log = BatchLog()
        self._clocks = StageClocks()
        if self._residency is not None:
            # Flush residency at the run boundary: dirty columns fence
            # back so host state is inspectable between runs, while the
            # (now clean) device copies survive — serve-loop reuse stays
            # params-only from the first batch of the next run.
            self._residency.sync_all_to_host()

    # ------------------------------------------------------------------
    def run_batch(self, transactions: list[Transaction]) -> BatchResult:
        """Process one batch end to end; returns its result.

        A batch that raises leaves the engine in service: if nothing
        was installed yet its log entry is marked failed (it has no
        outcome to reproduce, and recovery skips it); either way the
        observers are told the batch is over and the conflict log
        forgets its registrations, so the next batch is judged on its
        own.

        Every lane must carry its TID (a :class:`~repro.txn.batch.
        BatchScheduler` or :func:`~repro.txn.transaction.assign_tids`
        stamps it): the commit rule orders the batch by TID, so a lane
        without one has no place in it, and the batch is refused (by
        :class:`Batch`'s walk over the lanes) before the engine has
        counted, logged or registered anything."""
        if not transactions:
            empty = BatchStats(self._batch_counter, 0, 0, 0)
            self._batch_counter += 1
            return BatchResult(empty, [], [], [])
        # the route stage's host time starts with the walk over the lanes
        host_t0 = time.perf_counter()
        ledger = self._backend.transfer_stats()
        batch = Batch(self._batch_counter, transactions, ledger.snapshot())
        self._batch_counter += 1
        self._clocks = batch.clocks
        try:
            for stage in self.STAGES:
                with self._launch(stage, batch) as ctx:
                    for observer in self.observers:
                        observer.stage_entered(self, batch, stage)
                    batch.clean = batch.clean and not stage.installs
                    stage.run(self, batch, ctx)
                    for observer in self.observers:
                        observer.stage_leaving(self, batch, stage)
                host_t1 = time.perf_counter()
                batch.clocks.stamp(stage.name, host_t1 - host_t0, ledger.snapshot())
                host_t0 = host_t1
        except Exception:
            if batch.clean:
                self.batch_log.mark_failed(batch.index)
            raise
        finally:
            try:
                for observer in self.observers:
                    observer.batch_done(self, batch)
            finally:
                self.conflict_log.end_batch()
        assert batch.result is not None  # every stage ran
        return batch.result

    @contextlib.contextmanager
    def _launch(self, stage: Stage, batch: Batch) -> Iterator[KernelContext | None]:
        """A kernel stage's launch: the body runs inside the kernel (and
        the array backend's kernel phase); once it returns, the launch
        goes on the batch's clocks and the inter-kernel
        ``cudaDeviceSynchronize`` follows — charged to the compute
        stream so pipelined copy streams keep flowing, as CUDA events
        would allow.  A host stage launches nothing."""
        if stage.threads is None:
            yield None
            return
        device = self.device
        with device.kernel(
            stage.name,
            threads=max(1, stage.threads(batch)),
            stream=self.compute_stream,
        ) as ctx, self._backend.kernel_phase(stage.name):
            yield ctx
        batch.clocks.launches[stage.name] = ctx
        device.stream(self.compute_stream).enqueue(device.cost_model.sync_ns())
        for observer in self.observers:
            observer.stage_synced(self, batch, stage)

    # ------------------------------------------------------------------
    def _resolve_procedure(self, name: str) -> Procedure:
        """The registry's procedure for ``name``; an unknown name raises
        an engine error naming it and what *is* registered."""
        try:
            return self.procedures.get(name)
        except TransactionError:
            known = ", ".join(self.procedures.names()) or "(none)"
            raise TransactionError(
                f"batch references unknown procedure {name!r}; "
                f"registered procedures: {known}"
            ) from None

    # ------------------------------------------------------------------
    def process(
        self,
        scheduler: BatchScheduler,
        max_batches: int | None = None,
    ) -> RunStats:
        """Drain a scheduler: run batches, re-queue aborts, aggregate."""
        run = RunStats()
        for result in drive(self, scheduler, max_batches=max_batches):
            run.add(result.stats)
        return run

    def run_transactions(
        self, transactions: list[Transaction], max_batches: int = 1000
    ) -> RunStats:
        """Convenience: admit, process to completion, aggregate."""
        scheduler = BatchScheduler(self.config.batch_size)
        scheduler.admit(transactions)
        return self.process(scheduler, max_batches=max_batches)
