"""Device, streams, kernel costing, unified-memory pages."""

from __future__ import annotations

import pytest

from repro.errors import DeviceError
from repro.gpusim import (
    CostModel,
    Device,
    DeviceConfig,
    KernelStats,
    LaunchGeometry,
    PageTracker,
    Stream,
)


class TestLaunchGeometry:
    def test_threads(self):
        g = LaunchGeometry(grid=4, block=128)
        assert g.threads == 512

    def test_warps_rounds_up(self):
        g = LaunchGeometry(grid=2, block=100)
        assert g.warps(32) == 2 * 4

    def test_for_threads_small(self):
        g = LaunchGeometry.for_threads(10)
        assert g.threads >= 10

    def test_for_threads_large(self):
        g = LaunchGeometry.for_threads(10_000)
        assert g.threads >= 10_000
        assert g.block == 256

    def test_invalid(self):
        with pytest.raises(DeviceError):
            LaunchGeometry(grid=0, block=1)
        with pytest.raises(DeviceError):
            LaunchGeometry.for_threads(0)


class TestCostModel:
    def test_more_work_costs_more(self):
        model = CostModel(DeviceConfig())
        small = KernelStats(threads=256, instructions=1000)
        large = KernelStats(threads=256, instructions=100_000)
        assert model.kernel_ns(large) > model.kernel_ns(small)

    def test_parallelism_caps_at_lane_count(self):
        cfg = DeviceConfig()
        model = CostModel(cfg)
        work = dict(instructions=10_000_000)
        few = KernelStats(threads=cfg.total_lanes, **work)
        many = KernelStats(threads=cfg.total_lanes * 10, **work)
        # Same work, more threads than lanes: no further speedup.
        assert model.kernel_ns(few) == pytest.approx(model.kernel_ns(many))

    def test_atomic_chain_serialization_sublinear(self):
        model = CostModel(DeviceConfig())
        base = KernelStats(threads=1024, atomic_ops=1024)
        hot = KernelStats(
            threads=1024, atomic_ops=1024, atomic_serialized=1023,
            atomic_max_chain=1024,
        )
        t_base = model.kernel_timing(base)
        t_hot = model.kernel_timing(hot)
        assert t_hot.serialization_ns > t_base.serialization_ns
        # sqrt law: chain of 1024 costs ~32 collision units, not 1024
        assert t_hot.serialization_ns < 1024 * DeviceConfig().atomic_conflict_ns

    def test_bigger_chain_costs_more(self):
        model = CostModel(DeviceConfig())
        a = KernelStats(threads=64, atomic_ops=64, atomic_max_chain=8,
                        atomic_serialized=7)
        b = KernelStats(threads=64, atomic_ops=64, atomic_max_chain=64,
                        atomic_serialized=63)
        assert model.kernel_ns(b) > model.kernel_ns(a)

    def test_page_faults_charged(self):
        model = CostModel(DeviceConfig())
        clean = KernelStats(threads=32)
        faulty = KernelStats(threads=32, um_page_faults=100)
        delta = model.kernel_ns(faulty) - model.kernel_ns(clean)
        assert delta == pytest.approx(100 * DeviceConfig().um_page_fault_ns)


class TestStream:
    def test_enqueue_advances_clock(self):
        s = Stream("s")
        end = s.enqueue(100.0)
        assert end == 100.0
        assert s.enqueue(50.0) == 150.0

    def test_not_before_constraint(self):
        s = Stream("s")
        s.enqueue(10.0)
        s.advance_to(100.0)  # idle gap
        assert s.enqueue(5.0) == 105.0

    def test_events_order_cross_stream(self):
        a, b = Stream("a"), Stream("b")
        a.enqueue(500.0)
        from repro.gpusim import Event

        ev = Event("done")
        a.record_event(ev)
        b.wait_event(ev)
        assert b.time_ns == 500.0

    def test_wait_unrecorded_event_rejected(self):
        from repro.gpusim import Event

        with pytest.raises(DeviceError):
            Stream("s").wait_event(Event("nope"))


class TestDevice:
    def test_kernel_advances_clock_and_profiles(self):
        device = Device()
        device.stream().enqueue(7.0)
        with device.kernel("k1", threads=64) as ctx:
            ctx.add_instructions(1000)
        # the launch carries its own place on the stream
        assert ctx.start_ns == 7.0
        assert ctx.duration_ns > 0
        assert device.elapsed_ns() == 7.0 + ctx.duration_ns

    def test_kernel_requires_exactly_one_shape(self):
        device = Device()
        with pytest.raises(DeviceError):
            with device.kernel("k"):
                pass
        with pytest.raises(DeviceError):
            with device.kernel("k", threads=1, geometry=LaunchGeometry(1, 32)):
                pass

    def test_copy_cost_scales_with_bytes(self):
        device = Device()
        small = device.copy(1_000, "h2d")
        large = device.copy(100_000_000, "h2d")
        assert large > small

    def test_copy_kind_validated(self):
        with pytest.raises(DeviceError):
            Device().copy(10, "sideways")

    def test_reset_clock(self):
        device = Device()
        device.copy(1000, "h2d")
        device.copy(1000, "h2d", stream="other")
        device.reset_clock()
        assert device.elapsed_ns() == 0
        assert device.stream("other").time_ns == 0

    def test_independent_streams_overlap(self):
        device = Device()
        copy_ns = device.copy(1_000_000, "h2d", stream="copy")
        with device.kernel("k", threads=32, stream="compute") as ctx:
            ctx.add_instructions(10)
        # both ran from t=0 on their own timelines
        assert ctx.start_ns == 0.0
        assert device.stream("copy").time_ns == copy_ns > 0
        assert device.stream("compute").time_ns == ctx.duration_ns > 0
        assert device.elapsed_ns() < copy_ns + ctx.duration_ns


class TestPageTracker:
    def test_first_touch_faults(self):
        pages = PageTracker(capacity_pages=10)
        assert pages.touch("t", [0, 1, 2]) == 3

    def test_resident_pages_hit(self):
        pages = PageTracker(capacity_pages=10)
        pages.touch("t", [0, 1])
        assert pages.touch("t", [0, 1]) == 0

    def test_lru_eviction(self):
        pages = PageTracker(capacity_pages=2)
        pages.touch("t", [0])
        pages.touch("t", [1])
        pages.touch("t", [2])  # evicts 0
        assert pages.touch("t", [0]) == 1

    def test_touch_refreshes_recency(self):
        pages = PageTracker(capacity_pages=2)
        pages.touch("t", [0])
        pages.touch("t", [1])
        pages.touch("t", [0])  # 0 now most recent
        pages.touch("t", [2])  # evicts 1, not 0
        assert pages.touch("t", [0]) == 0
        assert pages.touch("t", [1]) == 1

    def test_buffers_namespaced(self):
        pages = PageTracker(capacity_pages=4)
        pages.touch("a", [0])
        assert pages.touch("b", [0]) == 1
