"""The simulated GPU device: launch kernels, copy data, synchronize.

Kernels execute *functionally* — the body is a Python callable that does
the real work with NumPy and records hardware events on the provided
:class:`~repro.gpusim.kernel.KernelContext`.  The device converts those
events into simulated time with the cost model and advances the target
stream's clock, so an engine built on top of :class:`Device` gets both
correct results and a hardware-plausible timeline.

Typical use::

    device = Device()
    with device.kernel("execute", threads=batch_size) as ctx:
        ...  # NumPy work + ctx.add_* recording
    device.synchronize()
    elapsed = device.elapsed_ns()
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.errors import DeviceError
from repro.gpusim.config import DeviceConfig
from repro.gpusim.costmodel import CostModel
from repro.gpusim.kernel import KernelContext, LaunchGeometry
from repro.gpusim.memory import PageTracker
from repro.gpusim.profiler import Profiler, TimelineEntry
from repro.gpusim.stream import Event, Stream
from repro.trace.tracer import Tracer

#: Name of the stream used when the caller does not pass one.
DEFAULT_STREAM = "stream0"


class Device:
    """One simulated GPU with streams, memory, a profiler and a clock."""

    def __init__(self, config: DeviceConfig | None = None):
        self.config = cfg = config or DeviceConfig()
        self.cost_model = CostModel(cfg)
        #: Unified-memory resident set, sized to the usable share of
        #: device memory; the engine's unified-memory stages touch it.
        self.pages = PageTracker(max(1, int(
            cfg.device_memory_bytes * cfg.um_resident_fraction // cfg.um_page_bytes
        )))
        self._streams: dict[str, Stream] = {DEFAULT_STREAM: Stream(DEFAULT_STREAM)}
        # The profiler shares the stream table so resetting it rewinds
        # the clocks too (a fresh timeline must start at start_ns=0).
        self.profiler = Profiler(streams=self._streams)
        #: Optional span recorder (see :mod:`repro.trace`).  When
        #: attached, kernels, transfers and syncs emit spans on their
        #: stream's track alongside the profiler's flat timeline.
        self.tracer: Tracer | None = None

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Attach (or detach, with ``None``) a span recorder.  Existing
        streams adopt it so their events emit flow arrows."""
        self.tracer = tracer
        for stream in self._streams.values():
            stream.tracer = tracer

    # -- streams -----------------------------------------------------------
    def stream(self, name: str = DEFAULT_STREAM) -> Stream:
        """Get (creating on first use) the named stream."""
        if name not in self._streams:
            self._streams[name] = Stream(name, tracer=self.tracer)
        return self._streams[name]

    def create_event(self, name: str) -> Event:
        return Event(name=name)

    # -- kernels -------------------------------------------------------------
    @contextlib.contextmanager
    def kernel(
        self,
        name: str,
        threads: int | None = None,
        geometry: LaunchGeometry | None = None,
        stream: str = DEFAULT_STREAM,
    ) -> Iterator[KernelContext]:
        """Launch a functional kernel; the body runs inside the ``with``.

        Exactly one of ``threads`` / ``geometry`` must be given.  On exit
        the recorded stats are costed and the stream clock advances.
        """
        if (threads is None) == (geometry is None):
            raise DeviceError("pass exactly one of threads= or geometry=")
        if geometry is None:
            geometry = LaunchGeometry.for_threads(int(threads))
        ctx = KernelContext(name, geometry, self.config)
        yield ctx
        timing = self.cost_model.kernel_timing(ctx.stats)
        s = self.stream(stream)
        start = s.time_ns
        s.enqueue(timing.total_ns)
        self.profiler.record(
            TimelineEntry("kernel", name, stream, start, timing.total_ns)
        )
        self.profiler.record_kernel(ctx.stats, timing)
        if self.tracer is not None:
            stats = ctx.stats
            args: dict[str, object] = {
                "threads": stats.threads,
                "instructions": stats.instructions,
                "global_reads": stats.global_reads,
                "global_writes": stats.global_writes,
                "atomic_ops": stats.atomic_ops,
                "atomic_serialized": stats.atomic_serialized,
                "atomic_max_chain": stats.atomic_max_chain,
                "divergent_branches": stats.divergent_branches,
                "launch_ns": timing.launch_ns,
                "serialization_ns": timing.serialization_ns,
                "divergence_ns": timing.divergence_ns,
            }
            args.update(ctx.trace_args)
            self.tracer.complete(
                name, stream, start, timing.total_ns, cat="kernel", args=args
            )

    # -- transfers -------------------------------------------------------------
    def copy(
        self,
        nbytes: int,
        kind: str,
        name: str = "copy",
        stream: str = DEFAULT_STREAM,
    ) -> float:
        """Enqueue a host<->device DMA; returns its duration in ns.

        ``kind`` is ``"h2d"`` or ``"d2h"`` (informational — PCIe is
        symmetric in this model).
        """
        if kind not in ("h2d", "d2h"):
            raise DeviceError(f"unknown copy kind {kind!r}")
        duration = self.config.transfer_ns(nbytes)
        s = self.stream(stream)
        start = s.time_ns
        s.enqueue(duration)
        self.profiler.record(
            TimelineEntry("transfer", f"{name}:{kind}", stream, start, duration)
        )
        if self.tracer is not None:
            self.tracer.complete(
                f"{name}:{kind}", stream, start, duration,
                cat="transfer", args={"bytes": nbytes},
            )
        return duration

    # -- synchronization ----------------------------------------------------
    def synchronize(self) -> float:
        """``cudaDeviceSynchronize``: align all stream clocks; returns the
        device time after the sync."""
        latest = max(s.time_ns for s in self._streams.values())
        latest += self.cost_model.sync_ns()
        for s in self._streams.values():
            s.advance_to(latest)
        self.profiler.record(
            TimelineEntry("sync", "device_sync", "*", latest, 0.0)
        )
        if self.tracer is not None:
            for name in self._streams:
                self.tracer.instant("device_sync", name, latest)
        return latest

    def elapsed_ns(self) -> float:
        """Current device time (max over stream clocks)."""
        return max(s.time_ns for s in self._streams.values())

    def reset_clock(self) -> None:
        """Zero every stream clock and drop profiler history.
        Unified-memory residency survives (it models persistent device
        state)."""
        self.profiler.reset()  # rewinds the shared stream clocks too
