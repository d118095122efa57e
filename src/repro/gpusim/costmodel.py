"""Analytical timing model for the SIMT simulator.

A kernel's simulated duration is the sum of

* launch overhead,
* *throughput time*: total per-thread work divided by the machine's lane
  count (work executes at full occupancy until the grid drains),
* *serialization time*: the longest atomic chain on a single address
  times the per-collision penalty — this is the critical path that no
  amount of parallelism hides, and the quantity LTPG's dynamic hash
  buckets attack,
* divergence replay and page-fault stalls.

This mirrors a classic roofline-with-critical-path model: wide enough to
show throughput effects (bigger batches amortize launch cost), sharp
enough to show contention effects (hot keys serialize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim.config import DeviceConfig
from repro.gpusim.kernel import KernelStats


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one kernel's simulated duration (nanoseconds)."""

    launch_ns: float
    throughput_ns: float
    serialization_ns: float
    divergence_ns: float
    page_fault_ns: float

    @property
    def total_ns(self) -> float:
        return (
            self.launch_ns
            + self.throughput_ns
            + self.serialization_ns
            + self.divergence_ns
            + self.page_fault_ns
        )


class CostModel:
    """Turns :class:`KernelStats` into simulated time for one device."""

    def __init__(self, config: DeviceConfig):
        self.config = config

    def kernel_timing(self, stats: KernelStats) -> KernelTiming:
        cfg = self.config
        work_ns = (
            stats.instructions * cfg.instruction_ns
            + stats.global_reads * cfg.global_read_ns
            + stats.global_writes * cfg.global_write_ns
            + stats.shared_accesses * cfg.shared_access_ns
            + stats.atomic_ops * cfg.atomic_ns
        )
        lanes = max(1, min(cfg.total_lanes, max(stats.threads, 1)))
        throughput_ns = work_ns / lanes
        # Same-address atomics serialize, but the hardware combines them
        # hierarchically (warp-level aggregation + L2 merging), so the
        # critical path grows sub-linearly in the chain length.  A
        # square-root law with the per-collision constant reproduces the
        # paper's Table VII across three orders of magnitude of
        # contention (see EXPERIMENTS.md "Calibration").
        chain = max(stats.atomic_max_chain - 1, 0)
        serialization_ns = math.sqrt(chain) * cfg.atomic_conflict_ns
        # Spread-out collisions that are not on the single hottest address
        # still cost retries; amortize them across the machine.
        amortized = max(stats.atomic_serialized - chain, 0)
        serialization_ns += amortized * cfg.atomic_conflict_ns / lanes
        divergence_ns = (
            stats.divergent_branches * cfg.divergence_ns / max(1, lanes // cfg.warp_size)
        )
        page_fault_ns = stats.um_page_faults * cfg.um_page_fault_ns
        bandwidth_ns = stats.coalesced_bytes / cfg.memory_bandwidth_bytes_per_ns
        throughput_ns += bandwidth_ns
        return KernelTiming(
            launch_ns=cfg.kernel_launch_ns,
            throughput_ns=throughput_ns,
            serialization_ns=serialization_ns,
            divergence_ns=divergence_ns,
            page_fault_ns=page_fault_ns,
        )

    def kernel_ns(self, stats: KernelStats) -> float:
        return self.kernel_timing(stats).total_ns

    def sync_ns(self) -> float:
        """Cost of a ``cudaDeviceSynchronize`` between phases."""
        return self.config.device_sync_ns
