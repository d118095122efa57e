"""CUDA-style occupancy calculation.

Occupancy — the fraction of a SM's warp slots actually resident — is
what lets GPUs hide memory latency; branchy OLTP kernels with large
register footprints run at low occupancy, which is one reason the
effective per-access costs in :mod:`repro.gpusim.config` are so much
larger than raw ALU latencies.

:func:`occupancy` reproduces the standard occupancy-calculator rules:
resident blocks per SM are limited by (i) the warp-slot budget, (ii)
the register file, (iii) shared memory, and (iv) the hardware block
cap; occupancy follows from the winner of those limits.  The engine
reports its execute launch's occupancy in
:attr:`~repro.core.stats.BatchStats.occupancy`; nothing scales the cost
model's lane count by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DeviceError


@dataclass(frozen=True)
class SmLimits:
    """Per-SM hardware budgets (defaults: Ampere GA102, the A6000)."""

    max_warps: int = 48
    max_blocks: int = 16
    registers: int = 65_536
    shared_memory_bytes: int = 100 * 1024

    def __post_init__(self) -> None:
        if min(self.max_warps, self.max_blocks, self.registers) <= 0:
            raise DeviceError("SM limits must be positive")


@dataclass(frozen=True)
class KernelResources:
    """What one block of the kernel consumes."""

    threads_per_block: int
    registers_per_thread: int = 32
    shared_bytes_per_block: int = 0

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0:
            raise DeviceError("block must have at least one thread")
        if self.registers_per_thread < 0 or self.shared_bytes_per_block < 0:
            raise DeviceError("resource usage must be non-negative")


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of the occupancy calculation."""

    blocks_per_sm: int
    warps_per_sm: int
    occupancy: float
    #: which budget capped the result:
    #: "warps" | "blocks" | "registers" | "shared_memory"
    limiter: str

    @property
    def active_threads_per_sm(self) -> int:
        return self.warps_per_sm * 32


def occupancy(
    resources: KernelResources,
    limits: SmLimits | None = None,
    warp_size: int = 32,
) -> OccupancyResult:
    """Resident blocks/warps per SM and the resulting occupancy."""
    limits = limits or SmLimits()
    warps_per_block = math.ceil(resources.threads_per_block / warp_size)

    by_warps = limits.max_warps // warps_per_block
    by_blocks = limits.max_blocks
    regs_per_block = (
        resources.registers_per_thread * warps_per_block * warp_size
    )
    by_registers = (
        limits.registers // regs_per_block if regs_per_block else by_blocks
    )
    if resources.shared_bytes_per_block:
        by_shared = limits.shared_memory_bytes // resources.shared_bytes_per_block
    else:
        by_shared = by_blocks

    blocks = min(by_warps, by_blocks, by_registers, by_shared)
    if blocks <= 0:
        raise DeviceError(
            "kernel resources exceed a whole SM "
            f"(block needs {regs_per_block} registers, "
            f"{resources.shared_bytes_per_block} B shared)"
        )
    caps = {
        "warps": by_warps,
        "blocks": by_blocks,
        "registers": by_registers,
        "shared_memory": by_shared,
    }
    limiter = min(caps, key=lambda k: caps[k])
    warps = blocks * warps_per_block
    return OccupancyResult(
        blocks_per_sm=blocks,
        warps_per_sm=warps,
        occupancy=warps / limits.max_warps,
        limiter=limiter,
    )
