"""``LTPGConfig(trace=True)`` as a stage-boundary observer.

:class:`TraceObserver` is the engine's only link to this package: the
stage runner calls it at every stage boundary
(:class:`repro.core.batch.BatchObserver`) and it turns what the batch
record carries into spans, counter series and registry entries.

Phase spans live on the compute stream's track and wrap the stage's
kernel plus its closing sync, so the span tree per stream reads batch ->
phase -> kernel; whole-batch envelopes are async spans (they overlap
under pipelining).  Timestamps come off the stream clocks — never host
time — so identical runs produce identical traces.

Like the rest of :mod:`repro.trace` this imports nothing of the engine
at run time (the simulator imports the tracer); the batch record is
read by attribute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.trace.metrics import MetricsRegistry
from repro.trace.tracer import Tracer

if TYPE_CHECKING:
    from repro.core.batch import Batch, Stage
    from repro.core.engine import LTPGEngine


class TraceObserver:
    """Records one engine's batches into a tracer and a registry."""

    #: Track carrying per-procedure-group execute spans (Perfetto shows
    #: which procedure group dominates a batch's execute kernel).
    GROUP_TRACK = "execute.groups"

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry) -> None:
        self.tracer = tracer
        self.metrics = metrics
        #: track of the phase span this observer has open, if any
        self._open: str | None = None

    # -- phase spans ------------------------------------------------------
    def stage_entered(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        if stage.threads is not None:
            track = engine.compute_stream
            clock = engine.device.stream(track).time_ns
            self.tracer.begin(f"phase:{stage.name}", track, clock, cat="phase")
            self._open = track

    def stage_leaving(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        pass

    def stage_synced(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        self._close_phase(engine)

    def _close_phase(self, engine: LTPGEngine) -> None:
        if self._open is not None:
            track, self._open = self._open, None
            self.tracer.end(track, engine.device.stream(track).time_ns)

    # -- the finished batch -----------------------------------------------
    def batch_done(self, engine: LTPGEngine, batch: Batch) -> None:
        """Populate the trace envelope, counter series and metrics
        registry for one finished batch; a failed batch only gets the
        phase span it died in closed."""
        self._close_phase(engine)
        if batch.result is None:
            return
        stats = batch.result.stats
        clocks = batch.clocks
        tracer, m = self.tracer, self.metrics
        end_ns = batch.end_ns
        self._record_groups(batch)
        log_metrics = engine.conflict_log.batch_metrics()
        load_factor = float(log_metrics["load_factor"])
        tracer.async_span(
            f"batch {stats.batch_index}",
            id=stats.batch_index,
            start_ns=batch.start_ns,
            end_ns=end_ns,
            args={
                "num_txns": stats.num_txns,
                "committed": stats.committed,
                "aborted": stats.aborted,
                "logic_aborted": stats.logic_aborted,
                "commit_rate": stats.commit_rate,
            },
        )
        tracer.counter("commit_rate", end_ns, value=stats.commit_rate)
        tracer.counter(
            "atomics", end_ns,
            ops=stats.atomic_ops, serialized=stats.atomic_serialized,
        )
        tracer.counter(
            "conflict_log_load", end_ns, load_factor=load_factor
        )
        m.counter("txn.admitted").inc(stats.num_txns)
        m.counter("txn.committed").inc(stats.committed)
        m.counter("txn.aborted").inc(stats.aborted)
        m.counter("txn.logic_aborted").inc(stats.logic_aborted)
        m.counter("atomic.ops").inc(stats.atomic_ops)
        m.counter("atomic.serialized").inc(stats.atomic_serialized)
        m.gauge("atomic.max_chain").set(stats.max_atomic_chain)
        m.counter("warp.divergent_branches").inc(stats.divergent_branches)
        m.gauge("kernel.occupancy.execute").set(stats.occupancy)
        m.gauge("conflict_log.load_factor").set(load_factor)
        m.gauge("conflict_log.expanded_slots").set(log_metrics["expanded_slots"])
        m.counter("conflict_log.registered_reads").inc(stats.registered_reads)
        m.counter("conflict_log.registered_writes").inc(stats.registered_writes)
        transfers = clocks.total_transfers()
        if transfers.get("count"):
            # real-transfer ledger of the array backend (absent on the
            # host reference, whose ledger stays at zero)
            tracer.counter(
                "transfers", end_ns,
                h2d_bytes=transfers["h2d_bytes"],
                d2h_bytes=transfers["d2h_bytes"],
            )
            m.counter("transfer.h2d_bytes").inc(transfers["h2d_bytes"])
            m.counter("transfer.d2h_bytes").inc(transfers["d2h_bytes"])
            m.counter("transfer.count").inc(transfers["count"])
            for phase, delta in clocks.phase_transfers().items():
                if delta.get("count"):
                    m.counter(f"transfer.{phase}.h2d_bytes").inc(delta["h2d_bytes"])
                    m.counter(f"transfer.{phase}.d2h_bytes").inc(delta["d2h_bytes"])
        reasons = m.histogram("engine.abort_reason")
        for reason, count in stats.abort_reasons.items():
            reasons.observe(reason, count)
        depths = m.histogram("engine.reschedule_depth")
        for attempts, count in stats.commit_attempts.items():
            depths.observe(attempts - 1, count)

    def _record_groups(self, batch: Batch) -> None:
        """Per-procedure-group spans and counters for the execute stage.

        The simulated execute kernel is one launch; its window
        is subdivided proportionally by each group's op count (the same
        work measure the cost model charges), which keeps the spans
        deterministic — pure integer-derived float math over simulated
        clocks, no host time.
        """
        # (procedure, lanes, ops) per procedure in first-appearance
        # order, counted over the frame: reading ``txn.ops`` here would
        # copy every lane's rows out just to take their length.
        names, gid = batch.group_names, batch.group_ids
        lane_counts = np.bincount(gid, minlength=len(names))
        # exact: op counts are far below 2**53
        op_counts = np.bincount(
            gid, weights=batch.frame.counts, minlength=len(names)
        ).astype(np.int64)
        groups = list(zip(names, lane_counts.tolist(), op_counts.tolist()))
        if not groups:
            return
        launch = batch.clocks.launches["execute"]
        g_start, g_dur = launch.start_ns, launch.duration_ns
        total_ops = sum(ops for _, _, ops in groups) or 1
        cursor = g_start
        for gi, (name, lanes, ops) in enumerate(groups):
            end = (
                max(cursor, g_start + g_dur)
                if gi == len(groups) - 1
                else cursor + g_dur * ops / total_ops
            )
            self.tracer.complete(
                f"execute:{name}", self.GROUP_TRACK, cursor,
                end - cursor, cat="group",
                args={"lanes": lanes, "ops": ops},
            )
            cursor = end
        ops_hist = self.metrics.histogram("execute.procedure_ops")
        size_hist = self.metrics.histogram("execute.group_size")
        for name, lanes, ops in groups:
            ops_hist.observe(name, ops)
            size_hist.observe(name, lanes)
