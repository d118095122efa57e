"""A SIMT GPU simulator: the hardware substrate for the LTPG reproduction.

The real paper runs on an NVIDIA RTX A6000.  This package provides a
functional + analytical stand-in: kernels compute their results as NumPy
code while recording *counts* of the hardware events (instructions,
memory traffic, atomic collisions, branch divergence, page faults) that
an analytical cost model converts into simulated time.  Nothing here
executes lane by lane: the counts come from the engine — divergence from
the warp plan, atomic chains from :func:`collision_profile`, page faults
from :class:`PageTracker`.  See DESIGN.md §2 for why this substitution
preserves the paper's experimental shapes.

Public surface:

* :class:`DeviceConfig`, :class:`CpuConfig` — calibration constants.
* :class:`Device` — streams, kernel launches and copies; it keeps a
  clock per stream, not a history.
* :class:`LaunchGeometry`, :class:`KernelStats`, and
  :class:`KernelContext` — a launch's recorded events and, once it
  returns, its own ``start_ns`` / ``duration_ns``.
* :func:`collision_profile` — same-address contention of an atomic batch.
* :class:`PageTracker` — the unified-memory LRU resident set.
"""

from repro.gpusim.atomics import collision_profile
from repro.gpusim.config import WARP_SIZE, CpuConfig, DeviceConfig
from repro.gpusim.costmodel import CostModel, KernelTiming
from repro.gpusim.device import DEFAULT_STREAM, Device
from repro.gpusim.kernel import KernelContext, KernelStats, LaunchGeometry
from repro.gpusim.memory import PageTracker
from repro.gpusim.occupancy import (
    KernelResources,
    OccupancyResult,
    SmLimits,
    occupancy,
)
from repro.gpusim.stream import Event, Stream

__all__ = [
    "WARP_SIZE",
    "collision_profile",
    "CpuConfig",
    "DeviceConfig",
    "CostModel",
    "KernelTiming",
    "DEFAULT_STREAM",
    "Device",
    "KernelContext",
    "KernelStats",
    "LaunchGeometry",
    "KernelResources",
    "OccupancyResult",
    "SmLimits",
    "occupancy",
    "PageTracker",
    "Event",
    "Stream",
]
