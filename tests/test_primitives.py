"""Device primitives: functional results + cost accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.gpusim import DeviceConfig, KernelContext, LaunchGeometry
from repro.gpusim.primitives import device_radix_sort


def ctx(threads=64):
    return KernelContext("k", LaunchGeometry.for_threads(threads), DeviceConfig())


class TestRadixSort:
    def test_sorts(self):
        got = device_radix_sort([5, 1, 9, 1, -3])
        assert list(got) == [-3, 1, 1, 5, 9]

    def test_cost_scales_with_key_bits(self):
        a, b = ctx(), ctx()
        data = np.arange(512)
        device_radix_sort(data, key_bits=16, ctx=a)
        device_radix_sort(data, key_bits=64, ctx=b)
        assert b.stats.coalesced_bytes > a.stats.coalesced_bytes

    def test_bad_inputs(self):
        with pytest.raises(DeviceError):
            device_radix_sort([1], key_bits=0)
        with pytest.raises(DeviceError):
            device_radix_sort([[1, 2]])

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=200))
    @settings(max_examples=25)
    def test_matches_sorted(self, keys):
        assert list(device_radix_sort(keys)) == sorted(keys)


class TestBandwidthCosting:
    def test_coalesced_cheaper_than_scattered(self):
        """1 MiB of coalesced traffic must cost far less than the same
        element count of uncoalesced global reads."""
        from repro.gpusim import CostModel, KernelStats

        model = CostModel(DeviceConfig())
        n = 128 * 1024
        coalesced = KernelStats(threads=4096, coalesced_bytes=8 * n)
        scattered = KernelStats(threads=4096, global_reads=n)
        assert model.kernel_ns(coalesced) < model.kernel_ns(scattered)
