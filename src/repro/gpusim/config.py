"""Device configuration for the SIMT GPU simulator.

The simulator is calibrated loosely against the NVIDIA RTX A6000 used in
the paper (84 SMs, 48 GiB GDDR6, PCIe 4.0 x16).  Absolute latencies are
analytical-model constants, not measurements; what matters for the
reproduction is that the *relative* costs (atomic serialization vs. plain
instruction, PCIe transfer vs. on-device access, page fault vs. resident
access) have realistic ratios so that the paper's experimental shapes are
reproduced from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceError

#: Number of lanes (threads) that execute one instruction in lock-step.
WARP_SIZE = 32


@dataclass(frozen=True)
class DeviceConfig:
    """Static description of a simulated GPU.

    Parameters mirror the knobs that the LTPG paper's performance
    depends on.  All time constants are in nanoseconds unless suffixed
    otherwise.
    """

    name: str = "sim-a6000"
    #: Streaming multiprocessors; each retires ``lanes_per_sm`` lanes/cycle.
    num_sms: int = 84
    #: Concurrent hardware lanes per SM (CUDA cores per SM on Ampere).
    lanes_per_sm: int = 128
    warp_size: int = WARP_SIZE
    max_threads_per_block: int = 1024
    #: Device memory capacity in bytes (48 GiB on the A6000).
    device_memory_bytes: int = 48 * 1024**3

    # --- per-event costs (ns) ------------------------------------------
    # Effective per-event lane costs for branchy, uncoalesced OLTP
    # kernels (latency-bound, low occupancy).  Calibrated so that the
    # simulated engine reproduces the paper's absolute throughput bands
    # (10-25 M TPS on TPC-C batches); see EXPERIMENTS.md "Calibration".
    #: Cost of one arithmetic/control instruction per thread.
    instruction_ns: float = 25.0
    #: Uncoalesced global-memory read per thread.
    global_read_ns: float = 150.0
    #: Uncoalesced global-memory write per thread.
    global_write_ns: float = 190.0
    #: Shared-memory access per thread.
    shared_access_ns: float = 15.0
    #: Base cost of an uncontended atomic operation.
    atomic_ns: float = 250.0
    #: Extra cost for each *serialized* atomic on the same address, i.e.
    #: the penalty paid by the k-th colliding thread.
    atomic_conflict_ns: float = 700.0
    #: Extra replay cost for a warp that diverges at a branch (both paths
    #: execute, masked).
    divergence_ns: float = 800.0
    #: Fixed kernel-launch overhead.
    kernel_launch_ns: float = 4_000.0
    #: Cost of ``cudaDeviceSynchronize``.
    device_sync_ns: float = 2_500.0

    #: Device-memory bandwidth for *coalesced* streaming access
    #: (GDDR6 on the A6000: ~768 GB/s; usable ~700).  Coalesced traffic
    #: is bandwidth-bound device-wide, unlike the per-lane latency
    #: costs above.
    memory_bandwidth_bytes_per_ns: float = 700.0

    # --- host <-> device transfers -------------------------------------
    #: PCIe 4.0 x16 effective bandwidth.
    pcie_bandwidth_gbps: float = 24.0
    #: Fixed per-transfer latency (driver + DMA setup).
    pcie_latency_ns: float = 8_000.0

    # --- unified memory -------------------------------------------------
    #: Unified-memory page size (matches CUDA's 64 KiB migration granule).
    um_page_bytes: int = 64 * 1024
    #: Cost of servicing one page fault (migration over PCIe + handling).
    um_page_fault_ns: float = 6_000.0
    #: Fraction of device memory usable as the unified-memory resident
    #: set before pages start getting evicted.
    um_resident_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.lanes_per_sm <= 0:
            raise DeviceError("device must have positive SM/lane counts")
        if self.warp_size <= 0:
            raise DeviceError("warp size must be positive")
        if self.max_threads_per_block % self.warp_size:
            raise DeviceError("block size limit must be warp aligned")

    @property
    def total_lanes(self) -> int:
        """Peak number of lanes retiring work concurrently."""
        return self.num_sms * self.lanes_per_sm

    def transfer_ns(self, nbytes: int) -> float:
        """Time to move ``nbytes`` across PCIe in one DMA transfer."""
        if nbytes < 0:
            raise DeviceError("transfer size must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.pcie_latency_ns + nbytes / self.pcie_bandwidth_gbps


@dataclass(frozen=True)
class CpuConfig:
    """Cost model for the multicore CPU baselines (2x Xeon Gold 6326;
    the paper schedules 30 cores)."""

    name: str = "sim-xeon-6326"
    num_cores: int = 30
    clock_ghz: float = 2.9
    #: One simple record operation (hash probe + field touch) per core.
    op_ns: float = 55.0
    #: Cost of taking/releasing one lock or latch.
    lock_ns: float = 48.0
    #: Cost of a CAS / atomic fetch-add on shared state.
    atomic_ns: float = 30.0
    #: Cost of allocating + stitching one record version (MVCC systems).
    version_ns: float = 130.0
    #: Cost of an aborted transaction's wasted work, as a fraction of its
    #: executed ops that must be repeated.
    abort_retry_factor: float = 1.0
    #: Per-transaction fixed overhead (begin/commit bookkeeping).
    txn_overhead_ns: float = 220.0

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise DeviceError("CPU model needs at least one core")
