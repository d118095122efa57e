"""Focused tests for smaller surfaces: profiler queries, reporting,
memory-mode factors, error hierarchy, kernel stats merging."""

from __future__ import annotations

import pytest

from repro import errors
from repro.bench.paper import _fmt, format_table
from repro.core import LTPGConfig, MemoryMode
from repro.core.memory_modes import MemoryPlan, transfer_latency_factor
from repro.gpusim import Device, DeviceConfig, KernelStats
from repro.gpusim.profiler import Profiler, TimelineEntry


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for name in (
            "DeviceError",
            "StorageError",
            "KeyNotFound",
            "DuplicateKey",
            "TransactionError",
            "TransactionAborted",
            "WorkloadError",
            "BenchmarkError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_specialization(self):
        assert issubclass(errors.KeyNotFound, errors.StorageError)
        assert issubclass(errors.TransactionAborted, errors.TransactionError)


class TestProfiler:
    def test_by_kernel_and_filters(self):
        p = Profiler()
        p.record(TimelineEntry("kernel", "execute", "s0", 0, 10))
        p.record(TimelineEntry("kernel", "execute", "s0", 10, 5))
        p.record(TimelineEntry("kernel", "conflict", "s0", 15, 2))
        p.record(TimelineEntry("transfer", "params:h2d", "s0", 17, 3))
        assert p.by_kernel() == {"execute": 15, "conflict": 2}
        assert p.transfer_ns() == 3
        assert p.total_ns(kind="kernel", name_prefix="exec") == 15
        assert p.total_ns() == 20

    def test_last_kernel_stats(self):
        p = Profiler()
        from repro.gpusim.costmodel import KernelTiming

        timing = KernelTiming(1, 1, 0, 0, 0)
        p.record_kernel(KernelStats(name="a", instructions=1), timing)
        p.record_kernel(KernelStats(name="b", instructions=2), timing)
        p.record_kernel(KernelStats(name="a", instructions=3), timing)
        assert p.last_kernel_stats("a").instructions == 3
        assert p.last_kernel_stats("zzz") is None

    def test_entry_end(self):
        e = TimelineEntry("kernel", "k", "s", 5.0, 2.5)
        assert e.end_ns == 7.5


class TestKernelStatsMerge:
    def test_merge_accumulates(self):
        a = KernelStats(threads=10, instructions=5, atomic_max_chain=3)
        b = KernelStats(threads=20, instructions=7, atomic_max_chain=2,
                        um_page_faults=4)
        a.merge(b)
        assert a.threads == 20
        assert a.instructions == 12
        assert a.atomic_max_chain == 3
        assert a.um_page_faults == 4


class TestReportingFormat:
    def test_fmt_rules(self):
        assert _fmt(0.0) == "0"
        assert _fmt(12345.6) == "12,346"
        assert _fmt(42.42) == "42.4"
        assert _fmt(1.234) == "1.23"
        assert _fmt("abc") == "abc"

    def test_table_with_note(self):
        text = format_table("T", ["a"], [[1]], note="hello")
        assert text.endswith("hello")


class TestMemoryModeFactors:
    def plan(self, mode):
        return MemoryPlan(mode=mode, snapshot_bytes=1, device_capacity=10)

    def test_zero_copy_discounts_latency(self):
        assert transfer_latency_factor(self.plan(MemoryMode.ZERO_COPY)) < 1.0

    def test_other_modes_full_latency(self):
        assert transfer_latency_factor(self.plan(MemoryMode.DEVICE)) == 1.0
        assert transfer_latency_factor(self.plan(MemoryMode.UNIFIED)) == 1.0

    def test_resident_property(self):
        assert self.plan(MemoryMode.DEVICE).snapshot_resident
        assert self.plan(MemoryMode.ZERO_COPY).snapshot_resident
        assert not self.plan(MemoryMode.UNIFIED).snapshot_resident


class TestDeviceConfigValidation:
    def test_transfer_edge_cases(self):
        cfg = DeviceConfig()
        assert cfg.transfer_ns(0) == 0.0
        with pytest.raises(errors.DeviceError):
            cfg.transfer_ns(-1)

    def test_invalid_geometry(self):
        import dataclasses

        with pytest.raises(errors.DeviceError):
            dataclasses.replace(DeviceConfig(), num_sms=0)
        with pytest.raises(errors.DeviceError):
            dataclasses.replace(DeviceConfig(), max_threads_per_block=100)

    def test_total_lanes(self):
        cfg = DeviceConfig()
        assert cfg.total_lanes == cfg.num_sms * cfg.lanes_per_sm


class TestStreamBusyAccounting:
    def test_busy_vs_elapsed(self):
        device = Device()
        s = device.stream("s")
        s.enqueue(10.0)
        s.enqueue(5.0, not_before_ns=100.0)  # idle gap
        assert s.busy_ns == 15.0
        assert s.time_ns == 105.0


class TestConfigReplacement:
    def test_memory_mode_enum_values(self):
        assert MemoryMode("device") is MemoryMode.DEVICE
        assert {m.value for m in MemoryMode} == {
            "device", "zero_copy", "unified", "auto",
        }

    def test_config_frozen(self):
        config = LTPGConfig()
        with pytest.raises(AttributeError):
            config.batch_size = 5
