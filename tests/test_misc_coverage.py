"""Focused tests for smaller surfaces: reporting, memory-mode factors,
error hierarchy, device-config validation."""

from __future__ import annotations

import pytest

from repro import errors
from repro.bench.paper import _fmt, format_table
from repro.core import LTPGConfig, MemoryMode
from repro.core.memory_modes import MemoryPlan, transfer_latency_factor
from repro.gpusim import DeviceConfig


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
