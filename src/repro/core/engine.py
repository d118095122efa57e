"""The LTPG engine: execute -> detect conflicts -> write back.

One :meth:`LTPGEngine.run_batch` call processes a batch exactly as the
paper's Algorithm 1 does:

1. **execute kernel** — every transaction runs against the snapshot,
   buffering effects in local sets and registering its TID in the
   conflict log (``atomicMin`` per accessed item, with dynamic hash
   buckets sizing the atomic fan-out).
2. ``cudaDeviceSynchronize``
3. **conflict kernel** — WAW/RAW/WAR verdicts per transaction from the
   logged minima, then the deterministic commit rule (with optional
   logical reordering).
4. ``cudaDeviceSynchronize``
5. **writeback kernel** — committed local sets install into the
   snapshot; delayed commutative adds merge via warp prefix sums.

The phases run functionally in Python/NumPy while recording hardware
events; the simulated clock yields latency and throughput.  Aborted
transactions keep their TIDs and are re-queued by the caller (usually a
:class:`~repro.txn.batch.BatchScheduler`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.core.config import LTPGConfig, MemoryMode
from repro.core.conflict_log import ConflictLog
from repro.core.delayed_update import DelayedUpdater
from repro.core.hotspot import HotspotDetector, TableHeat
from repro.core.memory_modes import MemoryPlan, resolve_memory_mode, transfer_latency_factor
from repro.core.occ import ConflictFlags, abort_reason, commit_mask, logical_order
from repro.core.split_flags import FlagGroups
from repro.core.stats import BatchStats, RunStats
from repro.errors import (
    ConfigError,
    KeyNotFound,
    TransactionAborted,
    TransactionError,
)
from repro.gpusim.device import Device
from repro.gpusim.occupancy import KernelResources, occupancy
from repro.storage.database import Database
from repro.storage.wal import BatchLog
from repro.txn.batch import BatchScheduler
from repro.txn.batch_context import BatchedContext, GroupLocals, pack_sort_key
from repro.txn.context import BufferedContext
from repro.txn.decompose import plan_arrays
from repro.txn.operations import NUM_OP_KINDS, OpFrame, OpKind, column_name
from repro.txn.procedures import Procedure, ProcedureRegistry
from repro.txn.transaction import (
    Transaction,
    TxnStatus,
    batch_columns,
    begin_framed_attempt,
)

# Per-operation hardware cost shape (events per op in the execute phase).
_READ_GLOBAL_READS = 3       # two index-probe loads + one data load
_WRITE_GLOBAL_WRITES = 1     # append to the local write-set
_WRITE_GLOBAL_READS = 2      # index probe
_INSERT_GLOBAL_WRITES = 2    # key + payload append
_OP_INSTRUCTIONS = 8         # decode, hash, bounds checks per op
_REGISTER_INSTRUCTIONS = 4   # conflict-log hash computation per op
_CHECK_INSTRUCTIONS = 6      # per-op verdict in the conflict kernel
_APPLY_INSTRUCTIONS = 4      # per-cell install in the writeback kernel


_tid_of = attrgetter("tid")
_procedure_of = attrgetter("procedure_name")
_attempts_of = attrgetter("attempts")

#: ``abort_reason`` for every (waw, raw, war) combination, indexed by
#: ``waw + 2 * raw + 4 * war``.
_ABORT_REASONS = tuple(
    abort_reason(bool(c & 1), bool(c & 2), bool(c & 4)) for c in range(8)
)


class _WitnessColumns(NamedTuple):
    """What :meth:`BatchResult.serial_order` is built from: the batch's
    conflict-key reservations as the phases left them (one entry per
    reserved key, with the lane and TID that reserved it) and which
    lanes committed.  Every array is allocated by the batch that
    produced it and never written again, so a result may be asked for
    its order however many batches later."""

    committed: np.ndarray  # bool per lane
    read_txn: np.ndarray
    read_tid: np.ndarray
    read_keys: np.ndarray
    write_txn: np.ndarray
    write_tid: np.ndarray
    write_keys: np.ndarray


@dataclass
class BatchResult:
    """Everything one batch produced."""

    stats: BatchStats
    committed: list[Transaction]
    aborted: list[Transaction]
    logic_aborted: list[Transaction]
    #: Inputs of the serial-order witness; the per-transaction key sets
    #: are only built if :meth:`serial_order` is called.
    _witness: _WitnessColumns | None = None
    _serial_order: list[int] | None = field(default=None, init=False, repr=False)

    def serial_order(self) -> list[int]:
        """TIDs of committed transactions in an equivalent serial order
        (computed on the first call)."""
        if self._serial_order is None:
            reads: dict[int, set] = {}
            writes: dict[int, set] = {}
            w = self._witness
            if w is not None:
                reads = _grouped_key_sets(
                    w.read_txn, w.read_tid, w.read_keys, w.committed
                )
                writes = _grouped_key_sets(
                    w.write_txn, w.write_tid, w.write_keys, w.committed
                )
            none: frozenset = frozenset()
            self._serial_order = logical_order(
                [
                    (t.tid, reads.get(t.tid, none), writes.get(t.tid, none))
                    for t in self.committed
                ]
            )
            self._witness = None
        return list(self._serial_order)

    def explain(self, limit: int = 20) -> str:
        """A human-readable per-transaction outcome summary (debugging
        aid; the first ``limit`` transactions of each outcome class)."""
        lines = [
            f"batch {self.stats.batch_index}: {self.stats.committed} committed, "
            f"{self.stats.aborted} aborted, {self.stats.logic_aborted} "
            f"logic-aborted of {self.stats.num_txns}"
        ]
        if self.stats.abort_reasons:
            # Same counters the stats carry; per-txn lines below show the
            # same reasons so the two views always agree.
            summary = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.stats.abort_reasons.items())
            )
            lines.append(f"  abort reasons: {summary}")
        for label, group in (
            ("committed", self.committed),
            ("aborted", self.aborted),
            ("logic-aborted", self.logic_aborted),
        ):
            for txn in group[:limit]:
                reason = f" [{txn.abort_reason}]" if txn.abort_reason else ""
                lines.append(
                    f"  {label:>13} tid={txn.tid} {txn.procedure_name}"
                    f" attempt={txn.attempts}{reason}"
                )
            if len(group) > limit:
                lines.append(f"  ... and {len(group) - limit} more {label}")
        return "\n".join(lines)


class LTPGEngine:
    """Deterministic-OCC batch transaction processing on one device."""

    def __init__(
        self,
        database: Database,
        procedures: ProcedureRegistry,
        config: LTPGConfig | None = None,
        device: Device | None = None,
        *,
        shard_router=None,
    ):
        self.database = database
        self.procedures = procedures
        self.config = config or LTPGConfig()
        if self.config.shards > 1 and shard_router is None:
            raise ConfigError(
                f"shards={self.config.shards} takes effect only through "
                "repro.shard.make_engine (or ShardedEngine), which routes "
                "each batch; a bare LTPGEngine would run it unsharded"
            )
        self.device = device or Device()
        self.flags = FlagGroups(
            database,
            self.config.all_split_columns(),
            enabled=self.config.split_flags,
        )
        self.delayed = DelayedUpdater(
            database, self.config.delayed_columns, enabled=self.config.delayed_update
        )
        self.conflict_log = ConflictLog(
            database, self.flags, dynamic_buckets=self.config.dynamic_buckets
        )
        self.hotspot = HotspotDetector(database, self.config.hot_tables)
        self.memory_plan: MemoryPlan = resolve_memory_mode(
            self.config, database, self.device
        )
        #: Shadow-access recorder (racecheck + memcheck), attached to the
        #: device when ``config.sanitize`` is set.  Imported lazily so the
        #: engine has no analysis-layer dependency when it is off.
        self.sanitizer = None
        if self.config.sanitize:
            from repro.analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer()
            self.device.attach_sanitizer(self.sanitizer)
        #: Span recorder + metrics registry (:mod:`repro.trace`),
        #: attached behind ``config.trace`` — same contract as
        #: ``sanitize``: zero bookkeeping on the hot path when off.
        self.tracer = None
        self.metrics = None
        if self.config.trace:
            from repro.trace import MetricsRegistry, Tracer

            self.tracer = Tracer()
            self.metrics = MetricsRegistry()
            self.device.attach_tracer(self.tracer)
        self.batch_log = BatchLog()
        self.last_heats: dict[int, TableHeat] = {}
        # Host wall-clock spent in each phase of the most recent batch
        # (seconds).  Deliberately *not* part of BatchStats: the
        # simulated-time stats must stay byte-identical between the
        # engine and the test oracle, and host timings never are.
        self.last_host_phase_s: dict[str, float] = {}
        # Procedure lookups cached across batches; invalidated only when
        # the registry version changes (registration bumps it).
        self._proc_cache: dict[str, Procedure] = {}
        self._proc_cache_version = -1
        # Streams; a pipelined runner points these at distinct streams.
        self.h2d_stream = "stream0"
        self.compute_stream = "stream0"
        self.d2h_stream = "stream0"
        self._batch_counter = 0
        # (procedure, lanes, ops) per execute group of the last batch,
        # recorded only when tracing/metrics are on (observability).
        self._last_groups: list[tuple[str, int, int]] = []
        # Resolved array backend (repro.xp) for the batched hot path and,
        # under config.device_resident, the device-resident table cache
        # on it; both re-resolved by _ensure_backend when a swapped
        # config object changes the key below.
        self._backend = None
        self._residency = None
        self._resource_key: tuple | None = None
        # Per-batch transfer-ledger deltas of the last batch (zero on
        # the numpy backend), recorded for metrics/tracing.
        self._last_transfers: dict[str, int] = {}
        # Same deltas split per phase (execute/conflict/writeback plus
        # "other" for inter-phase traffic like the full-sync fence).
        self._last_phase_transfers: dict[str, dict[str, int]] = {}
        # Sharding hooks of repro.shard's ShardedEngine wrapper (None on
        # a plain engine): shard_router partitions write-back cells by
        # row owner, shard_updaters are the per-shard delayed-update
        # mergers, and shard_order — set per batch — maps batch position
        # j to its admission-order index (the wrapper lays each batch out
        # shard-major).  The insert install keys its slot assignment on
        # shard_order so appended rows claim exactly the physical slots
        # the unsharded engine would assign — slot order feeds the
        # secondary/ordered indexes, which later batches observe.
        self.shard_router = shard_router
        self.shard_updaters = None
        self.shard_order = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the device-resident table cache: dirty columns fence
        back to host and the tables are unhooked, as on a backend swap.
        Idempotent, and a no-op without ``device_resident``; a batch run
        after ``close`` rebuilds the cache."""
        if self._residency is not None:
            self._residency.detach()
            self._residency = None
            self._resource_key = None

    def __enter__(self) -> "LTPGEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def last_transfers(self) -> dict[str, int]:
        """Transfer-ledger deltas of the last batch (empty on numpy)."""
        return dict(self._last_transfers)

    @property
    def last_phase_transfers(self) -> dict[str, dict[str, int]]:
        """Last batch's ledger deltas split by engine phase
        (``execute``/``conflict``/``writeback`` plus ``other`` for
        inter-phase traffic); empty on the numpy backend."""
        return {p: dict(d) for p, d in self._last_phase_transfers.items()}

    def reset_run_state(self) -> None:
        """Rewind every run-scoped clock and counter so the next batch
        starts a fresh timeline at ``t=0``.

        The ``Profiler.reset`` clock-hygiene contract, extended to the
        whole engine: stream clocks + profiler history (via
        :meth:`Device.reset_clock`), tracer spans, the metrics registry,
        the batch counter (span/stat names embed batch indices), the
        batch log and last-batch observability scratch.  Database state,
        procedure caches and device allocations survive —
        they model persistent state, not run history.  Back-to-back
        serve runs reset through here must produce bit-identical traces
        (pinned by ``tests/test_trace_observability.py``).
        """
        self.device.reset_clock()
        if self.tracer is not None:
            self.tracer.reset()
        if self.metrics is not None:
            self.metrics.reset()
        self._batch_counter = 0
        self.batch_log = BatchLog()
        self.last_host_phase_s = {}
        self._last_groups = []
        self._last_transfers = {}
        self._last_phase_transfers = {}
        if self._residency is not None:
            # Flush residency at the run boundary: dirty columns fence
            # back so host state is inspectable between runs, while the
            # (now clean) device copies survive — serve-loop reuse stays
            # params-only from the first batch of the next run.
            self._residency.sync_all_to_host()

    def _ensure_backend(self):
        """The resolved array backend — and, as ``self._residency``, the
        device-resident table cache on it (``None`` without
        ``config.device_resident``) — re-resolved when a config object
        swapped in after construction changes the backend name, the
        residency flag or the pinning policy.  :meth:`run_batch`
        resolves once per batch; the phases read the attributes."""
        config = self.config
        name = config.array_backend
        key = (name, config.device_resident, config.resident_tables)
        if self._resource_key == key:
            return self._backend
        if self._residency is not None:
            # The resident columns belong to the outgoing backend: fence
            # dirty state back to host with *its* crossings, then unhook
            # so the next cache re-uploads lazily from current host.
            self._residency.detach()
            self._residency = None
        if self._resource_key is None or self._resource_key[0] != name:
            from repro.xp import resolve_backend

            resolved = name
            if name == "auto" and config.sanitize:
                # device backends are invalid under sanitize (explicit
                # names fail ConfigError); auto degrades to host
                resolved = "numpy"
            self._backend = resolve_backend(resolved)
            self.conflict_log.set_backend(self._backend)
        if config.device_resident:
            from repro.xp.residency import ResidencyManager

            self._residency = ResidencyManager(
                self._backend, self.database, config.resident_tables
            )
        self._resource_key = key
        return self._backend

    # ------------------------------------------------------------------
    def run_batch(self, transactions: list[Transaction]) -> BatchResult:
        """Process one batch end to end; returns its result."""
        if not transactions:
            empty = BatchStats(self._batch_counter, 0, 0, 0)
            self._batch_counter += 1
            return BatchResult(empty, [], [], [])
        batch_index = self._batch_counter
        self._batch_counter += 1
        columns = batch_columns(transactions)
        self.batch_log.append_batch(batch_index, transactions, columns)
        backend = self._ensure_backend()
        xfer0 = backend.transfer_stats().snapshot()
        device = self.device
        start_ns = device.stream(self.h2d_stream).time_ns
        lat_factor = transfer_latency_factor(self.memory_plan)

        # -- host -> device: transaction parameters ---------------------
        h2d_bytes = len(transactions) * self.config.txn_param_bytes
        transfer_ns = device.copy(
            int(h2d_bytes * lat_factor), "h2d", name="params", stream=self.h2d_stream
        )
        h2d_done = device.create_event("h2d_done")
        device.stream(self.h2d_stream).record_event(h2d_done)
        device.stream(self.compute_stream).wait_event(h2d_done)

        # The two phases that only read the snapshot.  If either raises,
        # nothing was installed and the batch has no outcome to
        # reproduce: the log entry is marked so recovery skips it.
        try:
            # -- phase 1: execute ---------------------------------------
            exec_data = _ExecutionData(columns)
            host_t0 = time.perf_counter()
            self._trace_begin_phase("phase:execute")
            with device.kernel(
                "execute",
                threads=max(1, len(transactions)),
                stream=self.compute_stream,
            ) as ctx, backend.kernel_phase("execute"):
                self._execute_phase(transactions, exec_data, ctx)
            exec_entry = device.profiler.entries[-1]
            exec_ns = exec_entry.duration_ns
            exec_kernel_stats = ctx.stats
            exec_geometry = ctx.geometry
            self._phase_sync()
            self._trace_end_phase()
            host_t1 = time.perf_counter()
            xfer_exec = backend.transfer_stats().snapshot()

            # -- phase 2: conflict detection ----------------------------
            self._trace_begin_phase("phase:conflict")
            with device.kernel(
                "conflict",
                threads=max(1, exec_data.total_ops),
                stream=self.compute_stream,
            ) as ctx, backend.kernel_phase("conflict"):
                flags = self._conflict_phase(transactions, exec_data, ctx)
            conflict_ns = device.profiler.entries[-1].duration_ns
            self._phase_sync()
            self._trace_end_phase()
            host_t2 = time.perf_counter()
            xfer_conf = backend.transfer_stats().snapshot()
        except Exception:
            self.batch_log.mark_failed(batch_index)
            raise

        # -- phase 3: write-back -----------------------------------------
        committed_mask = commit_mask(flags, self.config.logical_reordering)
        self._trace_begin_phase("phase:writeback")
        with device.kernel(
            "writeback",
            threads=max(1, int(committed_mask.sum())),
            stream=self.compute_stream,
        ) as ctx, backend.kernel_phase("writeback"):
            rwset_bytes = self._writeback_phase(
                transactions, exec_data, committed_mask, ctx
            )
        writeback_ns = device.profiler.entries[-1].duration_ns
        self._phase_sync()
        self._trace_end_phase()
        host_t3 = time.perf_counter()
        xfer_wb = backend.transfer_stats().snapshot()

        # -- device -> host: read/write sets + conflict flags -----------
        compute_done = device.create_event("compute_done")
        device.stream(self.compute_stream).record_event(compute_done)
        device.stream(self.d2h_stream).wait_event(compute_done)
        d2h_bytes = rwset_bytes + len(transactions) * self.config.txn_flag_bytes
        rwset_ns = device.copy(
            int(d2h_bytes * lat_factor), "d2h", name="rwsets", stream=self.d2h_stream
        )
        transfer_ns += rwset_ns
        interval = self.config.full_sync_interval
        if interval and (batch_index + 1) % interval == 0:
            # Synchronization method 1 (§IV): ship the whole snapshot
            # back to the CPU on the user-defined interval.
            transfer_ns += device.copy(
                self.database.nbytes, "d2h", name="full_sync",
                stream=self.d2h_stream,
            )
            if self._residency is not None:
                # Under residency the interval sync is a *real* fence:
                # every dirty resident column ships back to host.
                self._residency.sync_all_to_host()
        end_ns = device.stream(self.d2h_stream).time_ns

        result = self._assemble_result(
            transactions,
            exec_data,
            flags,
            committed_mask,
            batch_index,
            latency_ns=end_ns - start_ns,
            transfer_ns=transfer_ns,
            phase_ns={
                "execute": exec_ns,
                "conflict": conflict_ns,
                "writeback": writeback_ns,
            },
        )
        self.last_host_phase_s = {
            "execute": host_t1 - host_t0,
            "conflict": host_t2 - host_t1,
            "writeback": host_t3 - host_t2,
            "assemble": time.perf_counter() - host_t3,
        }
        result.stats.rwset_ns = rwset_ns
        result.stats.registered_reads = int(exec_data.read_keys.size)
        result.stats.registered_writes = int(exec_data.write_keys.size)
        result.stats.max_atomic_chain = exec_kernel_stats.atomic_max_chain
        result.stats.atomic_ops = exec_kernel_stats.atomic_ops
        result.stats.atomic_serialized = exec_kernel_stats.atomic_serialized
        result.stats.divergent_branches = exec_kernel_stats.divergent_branches
        result.stats.occupancy = occupancy(
            KernelResources(threads_per_block=exec_geometry.block)
        ).occupancy
        xfer1 = backend.transfer_stats().snapshot()
        self._last_transfers = {k: xfer1[k] - xfer0[k] for k in xfer1}
        self._last_phase_transfers = {
            "execute": {k: xfer_exec[k] - xfer0[k] for k in xfer1},
            "conflict": {k: xfer_conf[k] - xfer_exec[k] for k in xfer1},
            "writeback": {k: xfer_wb[k] - xfer_conf[k] for k in xfer1},
            "other": {k: xfer1[k] - xfer_wb[k] for k in xfer1},
        }
        self._record_observability(
            result.stats, start_ns, end_ns,
            exec_span=(exec_entry.start_ns, exec_entry.duration_ns),
        )
        self.conflict_log.end_batch()
        self.batch_log.record_outcome(
            batch_index,
            list(map(_tid_of, result.committed)),
            list(map(_tid_of, result.aborted)),
        )
        return result

    # ------------------------------------------------------------------
    def _phase_sync(self) -> None:
        """Inter-kernel ``cudaDeviceSynchronize`` (charged to the compute
        stream so pipelined copy streams keep flowing, as CUDA events
        would allow)."""
        self.device.stream(self.compute_stream).enqueue(
            self.device.cost_model.sync_ns()
        )

    # ------------------------------------------------------------------
    # Tracing + metrics (``config.trace``).  Phase spans live on the
    # compute stream's track and wrap the phase kernel plus its closing
    # sync, so the span tree per stream reads batch -> phase -> kernel;
    # whole-batch envelopes are async spans (they overlap under
    # pipelining).  Timestamps come off the stream clocks — never host
    # time — so identical runs produce identical traces.
    def _trace_begin_phase(self, name: str) -> None:
        if self.tracer is not None:
            clock = self.device.stream(self.compute_stream).time_ns
            self.tracer.begin(name, self.compute_stream, clock, cat="phase")

    def _trace_end_phase(self) -> None:
        if self.tracer is not None:
            clock = self.device.stream(self.compute_stream).time_ns
            self.tracer.end(self.compute_stream, clock)

    def _record_observability(
        self,
        stats: BatchStats,
        start_ns: float,
        end_ns: float,
        exec_span: tuple[float, float] | None = None,
    ) -> None:
        """Populate the trace envelope, counter series and metrics
        registry for one finished batch (no-op when tracing is off)."""
        if self.tracer is None and self.metrics is None:
            return
        self._record_group_observability(exec_span)
        log_metrics = self.conflict_log.batch_metrics()
        stats.bucket_load_factor = float(log_metrics["load_factor"])
        stats.bucket_expanded_slots = int(log_metrics["expanded_slots"])
        if self.tracer is not None:
            self.tracer.async_span(
                f"batch {stats.batch_index}",
                id=stats.batch_index,
                start_ns=start_ns,
                end_ns=end_ns,
                args={
                    "num_txns": stats.num_txns,
                    "committed": stats.committed,
                    "aborted": stats.aborted,
                    "logic_aborted": stats.logic_aborted,
                    "commit_rate": stats.commit_rate,
                },
            )
            self.tracer.counter(
                "commit_rate", end_ns, value=stats.commit_rate
            )
            self.tracer.counter(
                "atomics", end_ns,
                ops=stats.atomic_ops, serialized=stats.atomic_serialized,
            )
            self.tracer.counter(
                "conflict_log_load", end_ns,
                load_factor=stats.bucket_load_factor,
            )
            if self._last_transfers.get("count"):
                # real-transfer ledger of the array backend (absent on
                # the host reference, whose ledger stays at zero)
                self.tracer.counter(
                    "transfers", end_ns,
                    h2d_bytes=self._last_transfers["h2d_bytes"],
                    d2h_bytes=self._last_transfers["d2h_bytes"],
                )
        if self.metrics is not None:
            m = self.metrics
            m.counter("txn.admitted").inc(stats.num_txns)
            m.counter("txn.committed").inc(stats.committed)
            m.counter("txn.aborted").inc(stats.aborted)
            m.counter("txn.logic_aborted").inc(stats.logic_aborted)
            m.counter("atomic.ops").inc(stats.atomic_ops)
            m.counter("atomic.serialized").inc(stats.atomic_serialized)
            m.gauge("atomic.max_chain").set(stats.max_atomic_chain)
            m.counter("warp.divergent_branches").inc(stats.divergent_branches)
            m.gauge("kernel.occupancy.execute").set(stats.occupancy)
            m.gauge("conflict_log.load_factor").set(stats.bucket_load_factor)
            m.gauge("conflict_log.expanded_slots").set(
                stats.bucket_expanded_slots
            )
            m.counter("conflict_log.registered_reads").inc(
                stats.registered_reads
            )
            m.counter("conflict_log.registered_writes").inc(
                stats.registered_writes
            )
            if self._last_transfers.get("count"):
                m.counter("transfer.h2d_bytes").inc(
                    self._last_transfers["h2d_bytes"]
                )
                m.counter("transfer.d2h_bytes").inc(
                    self._last_transfers["d2h_bytes"]
                )
                m.counter("transfer.count").inc(self._last_transfers["count"])
                for phase, delta in self._last_phase_transfers.items():
                    if not delta.get("count"):
                        continue
                    m.counter(f"transfer.{phase}.h2d_bytes").inc(
                        delta["h2d_bytes"]
                    )
                    m.counter(f"transfer.{phase}.d2h_bytes").inc(
                        delta["d2h_bytes"]
                    )
            reasons = m.histogram("engine.abort_reason")
            for reason, count in stats.abort_reasons.items():
                reasons.observe(reason, count)
            depths = m.histogram("engine.reschedule_depth")
            for attempts, count in stats.commit_attempts.items():
                depths.observe(attempts - 1, count)

    #: Track carrying per-procedure-group execute spans (Perfetto shows
    #: which procedure group dominates a batch's execute kernel).
    GROUP_TRACK = "execute.groups"

    def _record_group_observability(
        self, exec_span: tuple[float, float] | None
    ) -> None:
        """Per-procedure-group spans and counters for the execute phase.

        The simulated execute kernel is one timeline entry; its window
        is subdivided proportionally by each group's op count (the same
        work measure the cost model charges), which keeps the spans
        deterministic — pure integer-derived float math over simulated
        clocks, no host time.
        """
        groups = self._last_groups
        if not groups:
            return
        if self.tracer is not None and exec_span is not None:
            g_start, g_dur = exec_span
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
        if self.metrics is not None:
            ops_hist = self.metrics.histogram("execute.procedure_ops")
            size_hist = self.metrics.histogram("execute.group_size")
            for name, lanes, ops in groups:
                ops_hist.observe(name, ops)
                size_hist.observe(name, lanes)

    # ------------------------------------------------------------------
    # Shadow-access recording (``config.sanitize``).  Addresses are
    # conflict-granular — ``row * num_groups + group`` — so the shadow
    # cell matches the unit the WAW/RAW/WAR rules protect: a clean
    # engine is provably race-free at this granularity, and anything the
    # rules would miss shows up as a finding.  Thread ids are batch
    # indices (table traffic) or TIDs (conflict-log atomics).
    def _sanitize_table_reads(self, data: "_ExecutionData") -> None:
        san = self.sanitizer
        if san is None or data.read_table_arr.size == 0:
            return
        from repro.analysis.sanitizer import AccessKind

        for t in np.unique(data.read_table_arr):
            m = data.read_table_arr == t
            table = self.database.table_by_id(int(t))
            num_groups = max(1, self.flags.num_groups(int(t)))
            addr = data.read_row_arr[m] * num_groups + data.read_group_arr[m]
            san.record(
                f"table:{table.name}", addr, data.read_txn_arr[m], AccessKind.READ
            )

    def _sanitize_minima_reads(self, data: "_ExecutionData") -> None:
        """Conflict-kernel loads of the registered minima (plain reads;
        the atomicMin writes happened one sync point earlier)."""
        san = self.sanitizer
        if san is None:
            return
        from repro.analysis.sanitizer import AccessKind

        if data.write_keys.size:
            san.record(
                "conflict_log.write", data.write_keys, data.write_txn_arr,
                AccessKind.READ,
            )
            san.record(
                "conflict_log.read", data.write_keys, data.write_txn_arr,
                AccessKind.READ,
            )
        if data.read_keys.size:
            san.record(
                "conflict_log.write", data.read_keys, data.read_txn_arr,
                AccessKind.READ,
            )

    # ------------------------------------------------------------------
    def _procedure_cache(self) -> dict[str, Procedure]:
        """Engine-level procedure lookup cache, rebuilt only when the
        registry actually changes (not once per batch)."""
        version = self.procedures.version
        if version != self._proc_cache_version:
            self._proc_cache = {}
            self._proc_cache_version = version
        return self._proc_cache

    def _resolve_procedure(self, name: str) -> Procedure:
        """Cached procedure lookup that can never poison the cache: an
        unknown name raises a clear engine error naming the procedure
        (and what *is* registered) without caching anything."""
        cache = self._procedure_cache()
        proc = cache.get(name)
        if proc is None:
            try:
                proc = self.procedures.get(name)
            except TransactionError:
                known = ", ".join(self.procedures.names()) or "(none)"
                raise TransactionError(
                    f"batch references unknown procedure {name!r}; "
                    f"registered procedures: {known}"
                ) from None
            cache[name] = proc
        return proc

    def _execute_phase(self, transactions, data: "_ExecutionData", ctx) -> None:
        """Run procedures, buffer effects, register TIDs."""
        self._execute_batched(transactions, data)
        if self.tracer is not None or self.metrics is not None:
            self._last_groups = self._group_tallies(data)
        # Collect op arrays + per-op costs, skipping logic aborts for
        # registration but keeping their cost (the lanes did the work).
        table_txns, touched_rows = self._collect_columnar(transactions, data, ctx)
        self._register_batch(data, table_txns, touched_rows, ctx)

    def _register_batch(
        self,
        data: "_ExecutionData",
        table_txns: dict[int, int],
        touched_rows: dict[int, np.ndarray],
        ctx,
    ) -> None:
        """The execute phase's tail, whatever collected the ops: bucket
        sizes from ``table_txns`` (accessing transactions per table),
        unified-memory faults for ``touched_rows`` (accessed row slots
        per table), then TID registration in the conflict log."""
        db = self.database
        # Popularity verdicts drive this batch's bucket sizes.
        self.last_heats = self.hotspot.measure(table_txns)
        self.conflict_log.begin_batch(self.last_heats)

        # Unified memory: fault in the pages backing accessed rows.
        # Pages are touched in sorted order so the LRU tracker sees the
        # same sequence whichever collector built the row sets.
        if self.memory_plan.mode is MemoryMode.UNIFIED:
            faults = 0
            for table_id in sorted(touched_rows):
                table = db.table_by_id(table_id)
                pages = np.unique(
                    touched_rows[table_id] * table.schema.row_bytes
                    // self.device.config.um_page_bytes
                )
                faults += self.device.memory.pages.touch(table.name, pages)
            ctx.add_page_faults(faults)

        # TID registration (the execution-phase atomics).
        data.read_keys = self.conflict_log.encode(
            data.read_table_arr, data.read_row_arr, data.read_group_arr
        )
        data.write_keys = self.conflict_log.encode(
            data.write_table_arr, data.write_row_arr, data.write_group_arr
        )
        ctx.add_instructions(
            _REGISTER_INSTRUCTIONS
            * (data.read_keys.size + data.write_keys.size + data.ins_key_arr.size)
        )
        self.conflict_log.register_reads(
            data.read_keys, data.read_tid_arr, data.read_table_arr, ctx
        )
        self.conflict_log.register_writes(
            data.write_keys, data.write_tid_arr, data.write_table_arr, ctx
        )
        self.conflict_log.register_inserts(
            data.ins_table_arr, data.ins_key_arr, data.ins_tid_arr, ctx
        )
        self._sanitize_table_reads(data)

    # ------------------------------------------------------------------
    def _group_tallies(self, data: "_ExecutionData") -> list[tuple[str, int, int]]:
        """``(procedure, lanes, ops)`` per procedure in first-appearance
        order (observability only).  Counts over the frame: reading
        ``txn.ops`` here would copy every lane's rows out just to take
        their length."""
        names, gid = data.group_names, data.group_ids
        lanes = np.bincount(gid, minlength=len(names))
        # exact: op counts are far below 2**53
        ops = np.bincount(gid, weights=data.frame.counts, minlength=len(names))
        return list(zip(names, lanes.tolist(), ops.astype(np.int64).tolist()))

    # ------------------------------------------------------------------
    def _execute_batched(self, transactions, data: "_ExecutionData") -> None:
        """Group-by-procedure execution of one batch.

        Each group with a registered ``BatchProcedure`` twin runs as one
        vectorized call over a :class:`BatchedContext`; groups without a
        twin — every group under ``batched_exec=False`` — and individual
        lanes the twin sends to fallback run one at a time through their
        scalar procedure, so third-party procedures keep working.  Either
        way a lane's ops go into the batch's :class:`OpFrame`
        (``data.frame``), from which the collector takes the whole batch
        and each transaction its own ``ops``, and its buffered effects
        into the batch-wide columnar locals (``data.batch_locals``) for
        the scatter-based write-back: a twin-less group is one more
        group of the same bulk.
        """
        n = len(transactions)
        frame = data.frame
        begin_framed_attempt(transactions, frame)
        # Procedure groups in first-appearance order, as lane indices.
        names = data.group_names = list(dict.fromkeys(data.procedures))
        code = {name: k for k, name in enumerate(names)}
        gid = data.group_ids = np.fromiter(
            map(code.__getitem__, data.procedures), dtype=np.int64, count=n
        )
        groups = []
        for k, name in enumerate(names):
            member = gid == k
            groups.append((
                name,
                np.flatnonzero(member),
                list(compress(data.params, member.tolist())),
            ))
        delayed_fn = self.delayed.delayed_mask if self.delayed.columns else None
        use_twins = self.config.batched_exec
        parts = []
        for name, idxs, params in groups:
            proc = self._resolve_procedure(name)
            batched = self.procedures.get_batched(name) if use_twins else None
            if batched is None:
                parts.append(
                    self._execute_scalar_group(transactions, data, proc, idxs)
                )
                continue
            bctx = BatchedContext(
                self.database,
                params,
                delayed_mask_fn=delayed_fn,
                xp=self._backend,
                residency=self._residency,
            )
            batched(bctx, bctx.params)
            mat, counts, g_locals, ranges_by_lane = bctx.finalize()
            parts.append(self._apply_batched_group(
                transactions, data, proc, idxs, mat, counts, g_locals,
                ranges_by_lane, bctx.fallback, bctx.aborted,
            ))
        data.batch_locals = GroupLocals.merge(parts, n)
        frame.seal()
        data.logic_mask = frame.logic

    def _execute_scalar_lane(
        self, transactions, data: "_ExecutionData", proc, part: GroupLocals, i: int
    ) -> None:
        """One lane through its scalar procedure: recorded ops into the
        frame, buffered effects into its group's columnar locals."""
        txn = transactions[i]
        local_ctx = BufferedContext(self.database)
        try:
            proc(local_ctx, *txn.params)
        except (TransactionAborted, KeyNotFound):
            # Procedure rolled back, or a client-pre-resolved key
            # missed (e.g. Delivery naming an order whose NewOrder
            # aborted): a deterministic logic abort either way.  The
            # lane keeps the ops it recorded and contributes no effects.
            txn.status = TxnStatus.LOGIC_ABORTED
            txn.abort_reason = "logic"
            data.frame.add_scalar(i, local_ctx.ops, True)
            return
        data.frame.add_scalar(i, local_ctx.ops, False)
        part.add_scalar_locals(i, local_ctx.local, self.delayed.columns)
        if local_ctx.ranges:
            data.ranges_by_tid[txn.tid] = local_ctx.ranges

    def _execute_scalar_group(
        self, transactions, data: "_ExecutionData", proc, idxs: np.ndarray
    ) -> GroupLocals:
        """One twin-less group through the scalar path, folded columnar."""
        part = GroupLocals(len(transactions))
        for i in idxs.tolist():
            self._execute_scalar_lane(transactions, data, proc, part, i)
        part.seal()
        return part

    def _apply_batched_group(
        self,
        transactions,
        data: "_ExecutionData",
        proc,
        idxs: np.ndarray,
        mat: np.ndarray,
        counts: np.ndarray,
        g_locals: GroupLocals,
        ranges_by_lane: dict,
        fallback: np.ndarray,
        aborted: np.ndarray,
    ) -> GroupLocals:
        """Apply one group's finalized vectorized results: the op matrix
        goes to the frame whole, and only the lanes that differ from
        the rest are visited — logic aborts get their status, range
        readers their predicates, fallback lanes a scalar re-run."""
        part = g_locals.rekeyed(idxs, len(transactions))
        data.frame.add_group(idxs, mat, counts, aborted)
        for i in idxs[aborted].tolist():
            txn = transactions[i]
            txn.status = TxnStatus.LOGIC_ABORTED
            txn.abort_reason = "logic"
        tids = data.tids
        for li, lane_ranges in ranges_by_lane.items():
            data.ranges_by_tid[tids[idxs[li]]] = lane_ranges
        for i in idxs[fallback].tolist():
            self._execute_scalar_lane(transactions, data, proc, part, i)
        part.seal()
        return part

    # ------------------------------------------------------------------
    def _collect_columnar(self, transactions, data: "_ExecutionData", ctx):
        """Batch-wide columnar op collection.

        One flat ``(n_ops, 6)`` int64 matrix feeds everything: warp
        planning, ``np.bincount`` cost accounting, lexsort reservation
        dedup, touched-page collection, and table popularity counts.
        Returns ``(table_txns, touched_rows)`` for :meth:`_register_batch`.
        """
        db = self.database
        n = len(transactions)
        mat, counts = data.frame.mat, data.frame.counts
        tids = np.fromiter(data.tids, dtype=np.int64, count=n)
        registers = ~data.logic_mask
        total = mat.shape[0]
        kind = mat[:, 0]
        table = mat[:, 1]
        row = mat[:, 2]
        col = mat[:, 3]
        key = mat[:, 5]
        op_txn = np.repeat(np.arange(n, dtype=np.int64), counts)

        # Warp planning over the whole batch (grouped vs naive).
        exec_plan = plan_arrays(kind, table, counts, self.config.adaptive_warps)
        ctx.add_divergent_branches(exec_plan.divergent_branches)

        # Per-op hardware costs, batch-wide by kind.
        kind_counts = np.bincount(kind, minlength=NUM_OP_KINDS)
        n_reads = int(kind_counts[OpKind.READ])
        n_inserts = int(kind_counts[OpKind.INSERT])
        n_rmw = total - n_reads - n_inserts  # WRITEs + ADDs
        ctx.add_instructions(_OP_INSTRUCTIONS * total)
        ctx.add_global_reads(
            _READ_GLOBAL_READS * n_reads + _WRITE_GLOBAL_READS * n_rmw
        )
        ctx.add_global_writes(
            _INSERT_GLOBAL_WRITES * n_inserts + _WRITE_GLOBAL_WRITES * n_rmw
        )

        # Range predicates register for phantom checks; B-tree descents
        # cost their height.  Few transactions carry ranges, so this
        # stays a loop over just those.
        range_rows: list[tuple[int, int, int, int, int]] = []
        if data.ranges_by_tid:
            for i, txn in enumerate(transactions):
                if not registers[i]:
                    continue
                for table_id, lo, hi in data.ranges_by_tid.get(txn.tid, ()):
                    range_rows.append((table_id, lo, hi, txn.tid, i))
                    ordered = db.table_by_id(table_id).ordered
                    if ordered is not None:  # B-tree descent per range
                        ctx.add_global_reads(ordered.height)
        ra = np.asarray(range_rows, dtype=np.int64).reshape(len(range_rows), 5)
        data.range_table_arr = ra[:, 0]
        data.range_lo_arr = ra[:, 1]
        data.range_hi_arr = ra[:, 2]
        data.range_tid_arr = ra[:, 3]
        data.range_txn_arr = ra[:, 4]

        # Distinct (txn, table) pairs -> per-table accessing-txn counts.
        # The pair space is tiny (n x num_tables), so a scatter into a
        # boolean grid beats a sort-based np.unique.
        num_tables = db.num_tables
        seen_pairs = np.zeros((n, num_tables), dtype=bool)
        seen_pairs.reshape(-1)[op_txn * num_tables + table] = True
        if range_rows:
            seen_pairs[ra[:, 4], ra[:, 0]] = True
        per_table = seen_pairs.sum(axis=0)
        table_txns = {int(t): int(c) for t, c in enumerate(per_table) if c}

        # Rows with real slots, per table (unified-memory page faults).
        touched_rows: dict[int, np.ndarray] = {}
        if self.memory_plan.mode is MemoryMode.UNIFIED:
            has_row = row >= 0
            t_ok = table[has_row]
            r_ok = row[has_row]
            for table_id in np.unique(t_ok):
                touched_rows[int(table_id)] = np.unique(r_ok[t_ok == table_id])

        # Insert reservations (registering transactions only).
        reg_op = registers[op_txn]
        ins_mask = reg_op & (kind == OpKind.INSERT)
        data.ins_table_arr = table[ins_mask]
        data.ins_key_arr = key[ins_mask]
        data.ins_txn_arr = op_txn[ins_mask]
        data.ins_tid_arr = tids[data.ins_txn_arr]

        # Delayed-column discipline: within a batch those columns may
        # only be touched through ADD (checked before the own-insert
        # row filter, exactly like the test oracle's per-op loop).
        non_insert = reg_op & (kind != OpKind.INSERT)
        is_add = kind == OpKind.ADD
        if self.delayed.columns:
            delayed_ops = self.delayed.delayed_mask(table, col)
            bad = non_insert & delayed_ops & ~is_add
            if bad.any():
                offender = column_name(int(col[np.flatnonzero(bad)[0]]))
                raise TransactionError(
                    f"column {offender!r} is delayed-update managed and "
                    f"may only be accessed with ADD in a batch"
                )
            skip_delayed = delayed_ops & is_add
        else:
            skip_delayed = np.zeros(total, dtype=bool)

        # Reservation dedup: one (txn, table, row, group) per side.
        # Rows < 0 are reads of the transaction's own insert — the
        # insert reservation already guards that key.
        candidate = non_insert & ~skip_delayed & (row >= 0)
        group = self.flags.group_lookup(table, col)
        read_sel = candidate & ((kind == OpKind.READ) | is_add)
        write_sel = candidate & ((kind == OpKind.WRITE) | is_add)
        read_res, write_res = _dedup_reservations_two_sided(
            op_txn, table, row, group, candidate, read_sel, write_sel
        )
        (
            data.read_table_arr,
            data.read_row_arr,
            data.read_group_arr,
            data.read_txn_arr,
        ) = read_res
        data.read_tid_arr = tids[data.read_txn_arr]
        (
            data.write_table_arr,
            data.write_row_arr,
            data.write_group_arr,
            data.write_txn_arr,
        ) = write_res
        data.write_tid_arr = tids[data.write_txn_arr]
        return table_txns, touched_rows

    # ------------------------------------------------------------------
    def _conflict_phase(self, transactions, data: "_ExecutionData", ctx) -> ConflictFlags:
        """WAW/RAW/WAR verdicts per transaction."""
        n = len(transactions)
        log = self.conflict_log
        waw = np.zeros(n, dtype=bool)
        raw = np.zeros(n, dtype=bool)
        war = np.zeros(n, dtype=bool)
        self._sanitize_minima_reads(data)

        if data.write_keys.size:
            min_w = log.min_write(data.write_keys)
            min_r = log.min_read(data.write_keys)
            waw_ops = min_w < data.write_tid_arr
            war_ops = min_r < data.write_tid_arr
            waw |= np.bincount(
                data.write_txn_arr, weights=waw_ops, minlength=n
            ).astype(bool)
            war |= np.bincount(
                data.write_txn_arr, weights=war_ops, minlength=n
            ).astype(bool)
        if data.read_keys.size:
            raw_ops = log.min_write(data.read_keys) < data.read_tid_arr
            raw |= np.bincount(
                data.read_txn_arr, weights=raw_ops, minlength=n
            ).astype(bool)
        if data.ins_key_arr.size:
            winners = log.insert_winners(data.ins_table_arr, data.ins_key_arr)
            ins_waw = winners < data.ins_tid_arr
            waw |= np.bincount(
                data.ins_txn_arr, weights=ins_waw, minlength=n
            ).astype(bool)

        # Phantom protection for range reads: an earlier insert
        # reservation inside the predicate is a RAW on the predicate
        # (the reader's snapshot scan missed a row the serial order
        # would have shown); a *later* insert into an earlier reader's
        # predicate is the matching WAR (reordering the reader past the
        # inserter would un-miss it).
        if data.range_tid_arr.size and data.ins_key_arr.size:
            ctx.add_global_reads(2 * data.range_tid_arr.size)
            for table_id in np.unique(data.range_table_arr):
                ins_mask = data.ins_table_arr == table_id
                if not ins_mask.any():
                    continue
                order = np.argsort(data.ins_key_arr[ins_mask], kind="stable")
                ikeys = data.ins_key_arr[ins_mask][order]
                itids = data.ins_tid_arr[ins_mask][order]
                itxns = data.ins_txn_arr[ins_mask][order]
                rng_mask = data.range_table_arr == table_id
                for lo, hi, rtid, rtxn in zip(
                    data.range_lo_arr[rng_mask],
                    data.range_hi_arr[rng_mask],
                    data.range_tid_arr[rng_mask],
                    data.range_txn_arr[rng_mask],
                ):
                    a = np.searchsorted(ikeys, lo, side="left")
                    b = np.searchsorted(ikeys, hi, side="right")
                    if a >= b:
                        continue
                    window = itids[a:b]
                    if int(window.min()) < rtid:
                        raw[rtxn] = True
                    later = window > rtid
                    if later.any():
                        war[itxns[a:b][later]] = True

        # Cost: every op reads its own slot; additionally each *distinct*
        # large bucket is swept once (all s_u sub-slots) to find the
        # minimum — charging the sweep per op would double-count it.
        bucket_reads = (
            int(data.read_keys.size + data.write_keys.size)
            + int(data.ins_key_arr.size)
        )
        touched = np.concatenate((data.read_keys, data.write_keys))
        touched_tables = np.concatenate(
            (data.read_table_arr, data.write_table_arr)
        )
        if touched.size:
            uniq_keys, first = np.unique(touched, return_index=True)
            for table_id, s_u_count in zip(
                *np.unique(touched_tables[first], return_counts=True)
            ):
                s_u = log.bucket_size(int(table_id))
                if s_u > 1:
                    bucket_reads += int(s_u_count) * (s_u - 1)
        ctx.add_global_reads(bucket_reads)
        ctx.add_instructions(_CHECK_INSTRUCTIONS * max(1, data.total_ops))

        # Logic aborts never commit, whatever their flags say.
        waw |= data.logic_mask
        return ConflictFlags(waw=waw, raw=raw, war=war)

    # ------------------------------------------------------------------
    def _writeback_phase(self, transactions, data, committed_mask, ctx) -> int:
        """Install committed effects; returns read/write-set bytes for
        the copy-back transfer.

        Masked grouped scatters per (table, column) over the batch-wide
        columnar locals instead of one ``apply_local_sets`` call per
        transaction.  Safe because the WAW rule leaves at most one
        committed writer per (row, conflict-group): committed write
        cells are disjoint, committed adds commute, and each
        transaction's own write-kills-add ordering was already resolved
        when its local sets were built."""
        db = self.database
        bl = data.batch_locals
        commit = np.asarray(committed_mask, dtype=bool)
        # Only committed write-sets ship back for the CPU-side snapshot
        # merge (aborted transactions re-execute anyway), delayed deltas
        # included: the CPU must merge them into its primary copy.
        rwset_bytes = int(bl.nbytes_by_txn[commit].sum()) + 16 * int(
            bl.delayed_count_by_txn[commit].sum()
        )
        if self.sanitizer is not None:
            self._sanitize_writeback(bl, commit)
        w_keep = commit[bl.w_txn] if bl.w_txn.size else np.zeros(0, dtype=bool)
        a_keep = commit[bl.a_txn] if bl.a_txn.size else np.zeros(0, dtype=bool)
        d_keep = commit[bl.d_txn] if bl.d_txn.size else np.zeros(0, dtype=bool)
        cells = int(w_keep.sum()) + int(a_keep.sum())
        xp = self._backend
        on_device = xp.is_device
        residency = self._residency

        def scatter(tables, rows, cols, vals, accumulate: bool) -> None:
            if tables.size == 0:
                return
            order = np.lexsort((cols, tables))
            tables, rows, cols, vals = (
                tables[order], rows[order], cols[order], vals[order]
            )
            new = np.empty(tables.size, dtype=bool)
            new[0] = True
            new[1:] = (tables[1:] != tables[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], tables.size)
            for s, e in zip(starts, ends):
                table = db.table_by_id(int(tables[s]))
                cname = column_name(int(cols[s]))
                if on_device and residency is not None:
                    dev = residency.device_column(table, cname)
                    if dev is not None:
                        # device-resident write-back: scatter into the
                        # authoritative device copy and mark the host
                        # side stale — no round trip.  WAW-disjoint
                        # assignments and commutative adds make the
                        # apply order irrelevant (ARCHITECTURE §13).
                        idx = xp.from_host(rows[s:e])
                        val = xp.from_host(vals[s:e])
                        if accumulate:
                            xp.scatter_add(dev, idx, val)
                        else:
                            xp.scatter(dev, idx, val)
                        residency.mark_dirty(table, cname)
                        continue
                target = table.column(cname)
                if on_device:
                    # per-column device scatter with an explicit round
                    # trip: the snapshot's authoritative copy is host
                    # memory (the paper's CPU-side primary), so each
                    # (table, column) segment ships down, scatters, and
                    # ships the merged column back
                    dev = xp.from_host(target)
                    idx = xp.from_host(rows[s:e])
                    val = xp.from_host(vals[s:e])
                    if accumulate:
                        xp.scatter_add(dev, idx, val)
                    else:
                        xp.scatter(dev, idx, val)
                    host = xp.to_host(dev)
                    if not np.shares_memory(host, target):
                        target[:] = host
                elif accumulate:
                    np.add.at(target, rows[s:e], vals[s:e])
                else:
                    target[rows[s:e]] = vals[s:e]

        router = self.shard_router
        if router is None:
            scatter(
                bl.w_table[w_keep], bl.w_row[w_keep], bl.w_col[w_keep],
                bl.w_val[w_keep], accumulate=False,
            )
            scatter(
                bl.a_table[a_keep], bl.a_row[a_keep], bl.a_col[a_keep],
                bl.a_val[a_keep], accumulate=True,
            )
        else:
            # Sharded write-back: partition committed cells by row owner
            # and scatter shard by shard in fixed ascending order.  The
            # subsets are disjoint (one owner per row), committed writes
            # are WAW-disjoint and adds commute, so the result is
            # byte-identical to the single global scatter.
            for tables, rows, cols, vals, accumulate in (
                (bl.w_table[w_keep], bl.w_row[w_keep], bl.w_col[w_keep],
                 bl.w_val[w_keep], False),
                (bl.a_table[a_keep], bl.a_row[a_keep], bl.a_col[a_keep],
                 bl.a_val[a_keep], True),
            ):
                owners = router.owner_cells(tables, rows)
                for s in range(router.shards):
                    m = owners == s
                    if m.any():
                        scatter(
                            tables[m], rows[m], cols[m], vals[m],
                            accumulate=accumulate,
                        )
        # Inserts claim slots per table in (transaction, emission) order
        # — the scalar slot assignment — but install in bulk: keys that
        # already exist (or repeat within the committed batch; the
        # conflict phase guarantees a unique winner, this mirrors the
        # scalar get_row guard) drop out, the survivors take consecutive
        # slots, and the payload columns scatter per emission chunk.
        if bl.i_txn.size:
            if self.shard_order is not None:
                # shard-major batches: install in *admission* order, not
                # batch-position order, so slot assignment (and with it
                # secondary-index order) matches the unsharded engine
                txn_rank = self.shard_order[bl.i_txn]
            else:
                txn_rank = bl.i_txn
            order = np.lexsort((bl.i_seq, txn_rank))
            order = order[commit[bl.i_txn[order]]]
        else:
            order = np.empty(0, dtype=np.int64)
        if order.size:
            meta = bl.i_meta
            nlen = np.fromiter(
                (len(m[0]) for m in meta), dtype=np.int64, count=len(meta)
            )
            i_tb = bl.i_table[order]
            i_keys = bl.i_key[order]
            i_chs = bl.i_chunk[order]
            i_pos = bl.i_pos[order]
            cells += order.size + int(nlen[i_chs].sum())
            for table_id in np.unique(i_tb):
                m = i_tb == table_id
                table = db.table_by_id(int(table_id))
                kt, ct, pt = i_keys[m], i_chs[m], i_pos[m]
                exists = (kt >= 0) & (kt < table._dense_limit)
                nd = np.flatnonzero(~exists)
                if nd.size:
                    has = table.primary.__contains__
                    hits = np.fromiter(
                        map(has, kt[nd].tolist()), dtype=bool, count=nd.size
                    )
                    exists[nd[hits]] = True
                keep = ~exists
                if kt.size > 1:
                    first = np.zeros(kt.size, dtype=bool)
                    first[np.unique(kt, return_index=True)[1]] = True
                    keep &= first
                if not keep.any():
                    continue
                ck, pk = ct[keep], pt[keep]
                rows = table.append_keys(kt[keep])
                for c in np.unique(ck):
                    cm = ck == c
                    names, vals = meta[int(c)]
                    block = vals[pk[cm]]
                    trows = rows[cm]
                    for j, name in enumerate(names):
                        # freshly claimed slots: write host-side without
                        # fencing (note_appended mirrors them below)
                        table.host_column(name)[trows] = block[:, j]
                table.index_appended(rows)
                if residency is not None:
                    residency.note_appended(table, rows)
        ctx.add_global_writes(cells)
        ctx.add_instructions(_APPLY_INSTRUCTIONS * max(1, cells))
        if router is None or self.shard_updaters is None:
            self.delayed.apply_arrays(
                bl.d_table[d_keep], bl.d_row[d_keep], bl.d_col[d_keep],
                bl.d_val[d_keep], ctx, xp=xp, residency=residency,
            )
        else:
            # Per-shard delayed-update merge, same disjoint-partition
            # argument as the scatters above; the cost model even agrees
            # (deltas sum, and the owner subsets partition the distinct
            # target cells).
            d_t, d_r = bl.d_table[d_keep], bl.d_row[d_keep]
            d_c, d_v = bl.d_col[d_keep], bl.d_val[d_keep]
            owners = router.owner_cells(d_t, d_r)
            for s, updater in enumerate(self.shard_updaters):
                m = owners == s
                if m.any():
                    updater.apply_arrays(
                        d_t[m], d_r[m], d_c[m], d_v[m], ctx,
                        xp=xp, residency=residency,
                    )
        if self.memory_plan.mode is MemoryMode.UNIFIED and (
            w_keep.any() or a_keep.any()
        ):
            faults = 0
            t_all = np.concatenate((bl.w_table[w_keep], bl.a_table[a_keep]))
            r_all = np.concatenate((bl.w_row[w_keep], bl.a_row[a_keep]))
            for table_id in np.unique(t_all):
                table = db.table_by_id(int(table_id))
                row_bytes = table.schema.row_bytes
                pages = np.unique(
                    r_all[t_all == table_id] * row_bytes
                    // self.device.config.um_page_bytes
                )
                faults += self.device.memory.pages.touch(table.name, pages)
            ctx.add_page_faults(faults)
        return rwset_bytes

    def _sanitize_writeback(self, bl, commit) -> None:
        """The committed installs.  Plain writes for owned cells (the
        WAW rule guarantees a single committed writer per conflict
        group); atomic adds for delayed columns (commutative, multiple
        committers allowed)."""
        san = self.sanitizer
        if san is None:
            return
        from repro.analysis.sanitizer import AccessKind

        def emit(tables, rows, cols, txns, atomic: bool) -> None:
            if tables.size == 0:
                return
            groups = self.flags.group_lookup(tables, cols)
            for table_id in np.unique(tables):
                m = tables == table_id
                table = self.database.table_by_id(int(table_id))
                num_groups = max(1, self.flags.num_groups(int(table_id)))
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
            table = self.database.table_by_id(table_id)
            san.record(
                f"table:{table.name}:inserts", key, txn_idx,
                AccessKind.WRITE,
            )

    # ------------------------------------------------------------------
    def _assemble_result(
        self,
        transactions,
        data,
        flags: ConflictFlags,
        committed_mask,
        batch_index: int,
        latency_ns: float,
        transfer_ns: float,
        phase_ns: dict[str, float],
    ) -> BatchResult:
        # The batch stays columns: three masks partition the lanes, the
        # counters are counts over them, and the only per-lane Python
        # left is stamping each transaction with its own verdict.
        commit = np.asarray(committed_mask, dtype=bool)
        logic = data.logic_mask
        abort = ~(commit | logic)
        committed = list(compress(transactions, commit.tolist()))
        aborted = list(compress(transactions, abort.tolist()))
        logic_aborted = list(compress(transactions, logic.tolist()))
        committed_status = TxnStatus.COMMITTED
        for txn in committed:
            txn.status = committed_status
        codes = (flags.waw + 2 * flags.raw + 4 * flags.war)[abort]
        aborted_status = TxnStatus.ABORTED
        for txn, code in zip(aborted, codes.tolist()):
            txn.status = aborted_status
            txn.abort_reason = _ABORT_REASONS[code]
        # Logic aborts carry the reason their execution stamped, so the
        # stats and explain() read the same thing.
        abort_reasons = Counter(t.abort_reason for t in logic_aborted)
        for code, count in enumerate(np.bincount(codes, minlength=8).tolist()):
            if count:
                abort_reasons[_ABORT_REASONS[code]] += count
        stats = BatchStats(
            batch_index=batch_index,
            num_txns=len(transactions),
            committed=len(committed),
            aborted=len(aborted),
            logic_aborted=len(logic_aborted),
            latency_ns=latency_ns,
            transfer_ns=transfer_ns,
            phase_ns=phase_ns,
            committed_by_proc=Counter(map(_procedure_of, committed)),
            total_by_proc=Counter(data.procedures),
            abort_reasons=abort_reasons,
            commit_attempts=Counter(map(_attempts_of, committed)),
        )
        return BatchResult(
            stats=stats,
            committed=committed,
            aborted=aborted,
            logic_aborted=logic_aborted,
            _witness=_WitnessColumns(
                commit,
                data.read_txn_arr, data.read_tid_arr, data.read_keys,
                data.write_txn_arr, data.write_tid_arr, data.write_keys,
            ),
        )

    # ------------------------------------------------------------------
    def process(
        self,
        scheduler: BatchScheduler,
        max_batches: int | None = None,
    ) -> RunStats:
        """Drain a scheduler: run batches, re-queue aborts, aggregate."""
        run = RunStats()
        batches = 0
        while scheduler.has_work():
            if max_batches is not None and batches >= max_batches:
                break
            batch = scheduler.next_batch()
            if not batch:
                # Retries are delayed past the current index; spin the
                # scheduler forward (an empty GPU slot in real time).
                batches += 1
                continue
            result = self.run_batch(batch)
            scheduler.requeue_aborted(result.aborted)
            run.add(result.stats)
            batches += 1
        return run

    def run_transactions(
        self, transactions: list[Transaction], max_batches: int = 1000
    ) -> RunStats:
        """Convenience: admit, process to completion, aggregate."""
        scheduler = BatchScheduler(
            self.config.batch_size,
            retry_delay_batches=self.config.effective_retry_delay,
        )
        scheduler.admit(transactions)
        return self.process(scheduler, max_batches=max_batches)


def _dedup_reservations_two_sided(
    op_txn, table, row, group, candidate, read_sel, write_sel
):
    """Both sides' reservation dedups from ONE sort of the candidate
    ops.  Read and write selections are subsets of ``candidate`` (adds
    appear in both), so sorting the candidates once and taking each
    (txn, table, row, group) run's first read-side and first write-side
    entry matches two independent :func:`_dedup_reservations` passes."""
    t = op_txn[candidate]
    if t.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return (
            (empty, empty.copy(), empty.copy(), empty.copy()),
            (empty.copy(), empty.copy(), empty.copy(), empty.copy()),
        )
    tb = table[candidate]
    r = row[candidate]
    g = group[candidate]
    packed = pack_sort_key(t, tb, r, g)
    if packed is None:
        return (
            _dedup_reservations(op_txn, table, row, group, read_sel),
            _dedup_reservations(op_txn, table, row, group, write_sel),
        )
    order = np.argsort(packed, kind="stable")
    ps = packed[order]
    new = np.empty(ps.size, dtype=bool)
    new[0] = True
    new[1:] = ps[1:] != ps[:-1]
    run = np.cumsum(new) - 1
    t, tb, r, g = t[order], tb[order], r[order], g[order]
    out = []
    for side in (read_sel, write_sel):
        si = np.flatnonzero(side[candidate][order])
        if si.size:
            runs = run[si]
            keep = np.empty(si.size, dtype=bool)
            keep[0] = True
            keep[1:] = runs[1:] != runs[:-1]
            sel = si[keep]
            out.append((tb[sel], r[sel], g[sel], t[sel]))
        else:
            empty = np.empty(0, dtype=np.int64)
            out.append((empty, empty.copy(), empty.copy(), empty.copy()))
    return out[0], out[1]


def _dedup_reservations(op_txn, table, row, group, mask):
    """One reservation per (txn, table, row, group) among masked ops.

    Lexsort the candidates and keep each first occurrence.  Every kept
    field is part of the sort key, so which duplicate survives does not
    matter; downstream consumers (atomicMin registration, per-txn
    bincounts, witness sets) are all order-insensitive, which is what
    lets this sorted dedup stand in for the test oracle's first-seen
    sets without changing any batch outcome.
    """
    t = op_txn[mask]
    if t.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    tb = table[mask]
    r = row[mask]
    g = group[mask]
    packed = pack_sort_key(t, tb, r, g)
    if packed is not None:
        order = np.argsort(packed, kind="stable")
        ps = packed[order]
        keep = np.empty(ps.size, dtype=bool)
        keep[0] = True
        keep[1:] = ps[1:] != ps[:-1]
        t, tb, r, g = t[order], tb[order], r[order], g[order]
    else:
        order = np.lexsort((g, r, tb, t))
        t, tb, r, g = t[order], tb[order], r[order], g[order]
        keep = np.empty(t.size, dtype=bool)
        keep[0] = True
        keep[1:] = (
            (t[1:] != t[:-1])
            | (tb[1:] != tb[:-1])
            | (r[1:] != r[:-1])
            | (g[1:] != g[:-1])
        )
    return tb[keep], r[keep], g[keep], t[keep]


def _grouped_key_sets(txn_arr, tid_arr, key_arr, committed_mask) -> dict[int, set]:
    """{tid -> set(conflict keys)} over committed transactions, built
    from argsort + np.unique slice boundaries."""
    if txn_arr.size == 0:
        return {}
    mask = committed_mask[txn_arr]
    t = tid_arr[mask]
    if t.size == 0:
        return {}
    k = key_arr[mask]
    order = np.argsort(t, kind="stable")
    t = t[order]
    k = k[order]
    uniq, starts = np.unique(t, return_index=True)
    ends = np.append(starts[1:], t.size)
    return {
        int(u): set(k[s:e].tolist()) for u, s, e in zip(uniq, starts, ends)
    }


class _ExecutionData:
    """Scratch arrays shared between the three phases of one batch."""

    def __init__(self, columns: tuple) -> None:
        #: The batch as columns, gathered once (``batch_columns``).
        self.tids, self.procedures, self.params = columns
        #: The batch's ops, one lane per transaction (sealed by the
        #: execute phase), and its procedure groups as first-appearance
        #: names + a group id per lane.
        self.frame = OpFrame(len(self.tids))
        self.group_names: list[str] = []
        self.group_ids = np.empty(0, dtype=np.int64)
        #: Batch-wide columnar locals, set by the execute phase; the
        #: write-back scatters them.
        self.batch_locals: GroupLocals
        self.ranges_by_tid: dict[int, list[tuple[int, int, int]]] = {}
        #: Lanes whose procedure rolled itself back (left by the execute
        #: phase; the conflict phase keeps them from committing).
        self.logic_mask = np.empty(0, dtype=bool)
        self.read_keys = np.empty(0, dtype=np.int64)
        self.write_keys = np.empty(0, dtype=np.int64)
        # Reservations per side, one entry per reserved (lane, item):
        # set by the collector, read by every later phase.
        def empty() -> np.ndarray:
            return np.empty(0, dtype=np.int64)

        self.read_table_arr = empty()
        self.read_row_arr = empty()
        self.read_group_arr = empty()
        self.read_tid_arr = empty()
        self.read_txn_arr = empty()
        self.write_table_arr = empty()
        self.write_row_arr = empty()
        self.write_group_arr = empty()
        self.write_tid_arr = empty()
        self.write_txn_arr = empty()
        self.ins_table_arr = empty()
        self.ins_key_arr = empty()
        self.ins_tid_arr = empty()
        self.ins_txn_arr = empty()
        self.range_table_arr = empty()
        self.range_lo_arr = empty()
        self.range_hi_arr = empty()
        self.range_tid_arr = empty()
        self.range_txn_arr = empty()

    @property
    def total_ops(self) -> int:
        return (
            self.read_tid_arr.size + self.write_tid_arr.size + self.ins_tid_arr.size
        )
