"""Occupancy calculator: limits, limiters, lane scaling."""

from __future__ import annotations

import pytest

from repro.errors import DeviceError
from repro.gpusim.occupancy import (
    KernelResources,
    OccupancyResult,
    SmLimits,
    occupancy,
)


class TestOccupancy:
    def test_light_kernel_is_unlimited(self):
        # 256 threads (8 warps), 16 regs/thread, no shared memory:
        # warp budget allows 6 blocks; registers allow 16; block cap 16.
        result = occupancy(KernelResources(256, registers_per_thread=16))
        assert result.blocks_per_sm == 6
        assert result.warps_per_sm == 48
        assert result.occupancy == pytest.approx(1.0)
        assert result.limiter == "warps"

    def test_register_limited(self):
        # 255 regs/thread: one block of 256 threads needs ~65k regs.
        result = occupancy(KernelResources(256, registers_per_thread=255))
        assert result.blocks_per_sm == 1
        assert result.limiter == "registers"
        assert result.occupancy < 0.25

    def test_shared_memory_limited(self):
        result = occupancy(
            KernelResources(64, registers_per_thread=16,
                            shared_bytes_per_block=50 * 1024)
        )
        assert result.blocks_per_sm == 2
        assert result.limiter == "shared_memory"

    def test_block_cap_limited(self):
        # tiny 32-thread blocks: 16-block cap binds before the 48 warps
        result = occupancy(KernelResources(32, registers_per_thread=16))
        assert result.blocks_per_sm == 16
        assert result.warps_per_sm == 16
        assert result.limiter == "blocks"

    def test_oversized_kernel_rejected(self):
        with pytest.raises(DeviceError):
            occupancy(
                KernelResources(1024, registers_per_thread=255,
                                shared_bytes_per_block=200 * 1024)
            )

    def test_partial_warp_rounds_up(self):
        result = occupancy(KernelResources(33, registers_per_thread=16))
        # 33 threads = 2 warps
        assert result.warps_per_sm % 2 == 0

    def test_active_threads(self):
        result = occupancy(KernelResources(256, registers_per_thread=16))
        assert result.active_threads_per_sm == 48 * 32

    def test_invalid_inputs(self):
        with pytest.raises(DeviceError):
            KernelResources(0)
        with pytest.raises(DeviceError):
            KernelResources(32, registers_per_thread=-1)
        with pytest.raises(DeviceError):
            SmLimits(max_warps=0)
