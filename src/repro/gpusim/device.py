"""The simulated GPU device: launch kernels, copy data, keep clocks.

Kernels execute *functionally* — the body is a Python callable that does
the real work with NumPy and records hardware events on the provided
:class:`~repro.gpusim.kernel.KernelContext`.  The device converts those
events into simulated time with the cost model and advances the target
stream's clock, so an engine built on top of :class:`Device` gets both
correct results and a hardware-plausible timeline.  The device keeps
clocks, not a history: a launch's place on its stream is stamped on its
own :class:`~repro.gpusim.kernel.KernelContext`, and spans are kept only
by an attached tracer.

Typical use::

    device = Device()
    with device.kernel("execute", threads=batch_size) as ctx:
        ...  # NumPy work + ctx.add_* recording
    ctx.duration_ns  # the launch's simulated time
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
from repro.gpusim.stream import Stream
from repro.trace.tracer import Tracer

#: Name of the stream used when the caller does not pass one.
DEFAULT_STREAM = "stream0"


class Device:
    """One simulated GPU with streams, memory and a clock per stream."""

    def __init__(self, config: DeviceConfig | None = None):
        self.config = cfg = config or DeviceConfig()
        self.cost_model = CostModel(cfg)
        #: Unified-memory resident set, sized to the usable share of
        #: device memory; the engine's unified-memory stages touch it.
        self.pages = PageTracker(max(1, int(
            cfg.device_memory_bytes * cfg.um_resident_fraction // cfg.um_page_bytes
        )))
        self._streams: dict[str, Stream] = {DEFAULT_STREAM: Stream(DEFAULT_STREAM)}
        #: Optional span recorder (see :mod:`repro.trace`).  When
        #: attached, kernels and transfers emit spans on their stream's
        #: track.
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
        the recorded stats are costed, ``ctx.start_ns`` / ``ctx.duration_ns``
        are set and the stream clock advances.
        """
        if (threads is None) == (geometry is None):
            raise DeviceError("pass exactly one of threads= or geometry=")
        if geometry is None:
            geometry = LaunchGeometry.for_threads(int(threads))
        ctx = KernelContext(name, geometry, self.config)
        yield ctx
        timing = self.cost_model.kernel_timing(ctx.stats)
        s = self.stream(stream)
        ctx.start_ns, ctx.duration_ns = s.time_ns, timing.total_ns
        s.enqueue(timing.total_ns)
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
                name, stream, ctx.start_ns, timing.total_ns, cat="kernel", args=args
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
        if self.tracer is not None:
            self.tracer.complete(
                f"{name}:{kind}", stream, start, duration,
                cat="transfer", args={"bytes": nbytes},
            )
        return duration

    # -- clocks ---------------------------------------------------------------
    def elapsed_ns(self) -> float:
        """Current device time (max over stream clocks)."""
        return max(s.time_ns for s in self._streams.values())

    def reset_clock(self) -> None:
        """Zero every stream clock, so the next launch starts a fresh
        timeline at ``t=0``.  Unified-memory residency survives (it
        models persistent device state)."""
        for s in self._streams.values():
            s.time_ns = 0.0
