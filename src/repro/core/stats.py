"""Per-batch and aggregate statistics reported by engines.

All engines (LTPG and baselines) report :class:`BatchStats`, and the
bench harness aggregates them into :class:`RunStats`, from which TPS,
commit rate and latency — the paper's three metrics — are derived.
Times are *simulated* nanoseconds from the device/CPU cost models.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class BatchStats:
    """Outcome and timing of one processed batch."""

    batch_index: int
    num_txns: int
    committed: int
    aborted: int
    logic_aborted: int = 0
    #: simulated end-to-end batch latency (params in -> results back)
    latency_ns: float = 0.0
    #: simulated host<->device transfer portion of the latency
    transfer_ns: float = 0.0
    #: the device->host read/write-set copy-back alone (Table V)
    rwset_ns: float = 0.0
    #: simulated time per phase, e.g. {"execute": ..., "conflict": ...,
    #: "writeback": ...}
    phase_ns: dict[str, float] = field(default_factory=dict)
    #: committed counts per procedure name
    committed_by_proc: Counter = field(default_factory=Counter)
    #: admitted counts per procedure name
    total_by_proc: Counter = field(default_factory=Counter)
    #: abort reasons ("waw", "raw", "war", ...) -> count
    abort_reasons: Counter = field(default_factory=Counter)
    #: committed transactions by attempt number (1 = first try) — the
    #: retry distribution behind the latency trade-off of §V-E
    commit_attempts: Counter = field(default_factory=Counter)
    #: conflict-log observability: registrations + longest atomic chain
    registered_reads: int = 0
    registered_writes: int = 0
    max_atomic_chain: int = 0
    #: execute-kernel atomic traffic: ops issued and how many of them
    #: serialized behind an earlier op on the same bucket slot (§V-C)
    atomic_ops: int = 0
    atomic_serialized: int = 0
    #: warp-divergence events in the execute kernel (§V-B)
    divergent_branches: int = 0
    #: theoretical occupancy of the execute launch (0..1)
    occupancy: float = 0.0

    @property
    def commit_rate(self) -> float:
        """Fraction of the batch that committed (logic aborts count as
        completed work, matching the paper's commit-rate metric which
        tracks concurrency-control success)."""
        decided = self.committed + self.logic_aborted
        return decided / self.num_txns if self.num_txns else 1.0

    def commit_rate_of(self, procedure: str) -> float:
        total = self.total_by_proc.get(procedure, 0)
        if not total:
            return 1.0
        return self.committed_by_proc.get(procedure, 0) / total


@dataclass
class RunStats:
    """Aggregate over a sequence of batches."""

    batches: list[BatchStats] = field(default_factory=list)

    def add(self, stats: BatchStats) -> None:
        self.batches.append(stats)

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def total_committed(self) -> int:
        return sum(b.committed + b.logic_aborted for b in self.batches)

    @property
    def total_admitted(self) -> int:
        return sum(b.num_txns for b in self.batches)

    @property
    def total_ns(self) -> float:
        return sum(b.latency_ns for b in self.batches)

    @property
    def throughput_tps(self) -> float:
        """Committed transactions per simulated second."""
        if self.total_ns <= 0:
            return 0.0
        return self.total_committed / (self.total_ns * 1e-9)

    @property
    def mean_latency_ns(self) -> float:
        if not self.batches:
            return 0.0
        return self.total_ns / len(self.batches)

    @property
    def mean_commit_rate(self) -> float:
        if not self.batches:
            return 1.0
        return sum(b.commit_rate for b in self.batches) / len(self.batches)

    def phase_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for b in self.batches:
            for phase, ns in b.phase_ns.items():
                totals[phase] = totals.get(phase, 0.0) + ns
        return totals

    def latency_percentile(self, p: float) -> float:
        """Per-batch latency percentile in ns (p in [0, 100])."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self.batches:
            return 0.0
        ordered = sorted(b.latency_ns for b in self.batches)
        rank = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def abort_reason_totals(self) -> Counter:
        """Aggregate abort reasons over the run."""
        totals: Counter = Counter()
        for b in self.batches:
            totals.update(b.abort_reasons)
        return totals

    # -- observability aggregates (the repro.trace metrics surface) ------
    @property
    def total_atomic_ops(self) -> int:
        return sum(b.atomic_ops for b in self.batches)

    @property
    def total_atomic_serialized(self) -> int:
        return sum(b.atomic_serialized for b in self.batches)

    @property
    def atomic_serialization_rate(self) -> float:
        """Fraction of execute-phase atomics that waited behind another
        op on the same bucket slot (0 when no atomics were issued)."""
        ops = self.total_atomic_ops
        return self.total_atomic_serialized / ops if ops else 0.0

    def commit_attempt_totals(self) -> Counter:
        """Committed transactions by attempt number over the run."""
        totals: Counter = Counter()
        for b in self.batches:
            totals.update(b.commit_attempts)
        return totals

    def reschedule_depth_totals(self) -> Counter:
        """Committed transactions by how many times they were aborted
        and re-queued first (attempt 1 = depth 0)."""
        return Counter(
            {attempts - 1: count
             for attempts, count in self.commit_attempt_totals().items()}
        )

    def metrics_summary(self) -> dict:
        """JSON-ready observability block for bench output."""
        return {
            "atomic": {
                "ops": self.total_atomic_ops,
                "serialized": self.total_atomic_serialized,
                "serialization_rate": round(self.atomic_serialization_rate, 6),
                "max_chain": max(
                    (b.max_atomic_chain for b in self.batches), default=0
                ),
            },
            "warp": {
                "divergent_branches": sum(
                    b.divergent_branches for b in self.batches
                ),
                "mean_occupancy": (
                    sum(b.occupancy for b in self.batches) / len(self.batches)
                    if self.batches
                    else 0.0
                ),
            },
            "conflict_log": {
                "registered_reads": sum(
                    b.registered_reads for b in self.batches
                ),
                "registered_writes": sum(
                    b.registered_writes for b in self.batches
                ),
            },
            "abort_reasons": {
                str(k): v for k, v in sorted(self.abort_reason_totals().items())
            },
            "reschedule_depth": {
                str(k): v
                for k, v in sorted(self.reschedule_depth_totals().items())
            },
        }
