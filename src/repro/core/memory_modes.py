"""Selective memory mode adjustment (paper §V-E).

LTPG keeps the database snapshot and the conflict logs resident in GPU
memory when they fit.  Databases that exceed device capacity fall back
to unified memory (automatic paging, page-fault costs); the zero-copy
mode keeps the snapshot resident but exchanges batch inputs/outputs
through host-pinned buffers.  In the model that is one thing only: a
discount on the fixed per-transfer DMA latency
(:func:`transfer_latency_factor`); kernel accesses cost the same as in
device mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LTPGConfig, MemoryMode
from repro.gpusim.device import Device
from repro.storage.database import Database

#: Fraction of device memory the snapshot may occupy before LTPG
#: switches AUTO mode to unified memory (headroom for logs and sets).
_RESIDENT_HEADROOM = 0.80

#: Zero-copy DMA setup is cheaper than a full cudaMemcpy (pinned pages,
#: no staging); modeled as a discount on the per-transfer latency.
_ZERO_COPY_LATENCY_DISCOUNT = 0.25


@dataclass(frozen=True)
class MemoryPlan:
    """The resolved placement decision for one engine instance."""

    mode: MemoryMode
    snapshot_bytes: int
    device_capacity: int

    @property
    def snapshot_resident(self) -> bool:
        return self.mode in (MemoryMode.DEVICE, MemoryMode.ZERO_COPY)


def resolve_memory_mode(
    config: LTPGConfig, database: Database, device: Device
) -> MemoryPlan:
    """Pick the concrete mode for AUTO, honor explicit choices."""
    snapshot_bytes = database.nbytes
    capacity = device.config.device_memory_bytes
    mode = config.memory_mode
    if mode is MemoryMode.AUTO:
        if snapshot_bytes <= capacity * _RESIDENT_HEADROOM:
            mode = MemoryMode.DEVICE
        else:
            mode = MemoryMode.UNIFIED
    return MemoryPlan(mode=mode, snapshot_bytes=snapshot_bytes, device_capacity=capacity)


def transfer_latency_factor(plan: MemoryPlan) -> float:
    """Multiplier on the fixed per-transfer latency for batch exchange
    buffers (zero-copy avoids staging copies)."""
    if plan.mode is MemoryMode.ZERO_COPY:
        return _ZERO_COPY_LATENCY_DISCOUNT
    return 1.0
