"""Kernel launch geometry and per-kernel event accounting.

The simulator executes kernels *functionally* (plain Python / NumPy code)
while the kernel records the events that would have occurred on real
hardware — instructions, global loads/stores, atomics and their
collisions, divergent branches.  The :class:`~repro.gpusim.costmodel.CostModel`
turns the recorded :class:`KernelStats` into simulated nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DeviceError
from repro.gpusim.config import DeviceConfig


@dataclass(frozen=True)
class LaunchGeometry:
    """CUDA-style ``<<<grid, block>>>`` launch shape (1-D)."""

    grid: int
    block: int

    def __post_init__(self) -> None:
        if self.grid <= 0 or self.block <= 0:
            raise DeviceError("grid and block dimensions must be positive")

    @property
    def threads(self) -> int:
        return self.grid * self.block

    def warps(self, warp_size: int) -> int:
        per_block = math.ceil(self.block / warp_size)
        return self.grid * per_block

    @classmethod
    def for_threads(cls, n_threads: int, block: int = 256) -> "LaunchGeometry":
        """A geometry with at least ``n_threads`` threads, one thread per
        work item (the usual grid-stride-free mapping)."""
        if n_threads <= 0:
            raise DeviceError("kernel needs at least one thread")
        block = min(block, n_threads) if n_threads < block else block
        grid = math.ceil(n_threads / block)
        return cls(grid=grid, block=block)


@dataclass
class KernelStats:
    """Events recorded during one (functional) kernel execution.

    ``atomic_max_chain`` is the length of the longest serialization chain
    observed on a single atomic address — the quantity that dominates
    conflict-log marking latency in the paper (Table VII).
    """

    name: str = "kernel"
    threads: int = 0
    instructions: int = 0
    global_reads: int = 0
    global_writes: int = 0
    shared_accesses: int = 0
    atomic_ops: int = 0
    atomic_serialized: int = 0
    atomic_max_chain: int = 0
    divergent_branches: int = 0
    um_page_faults: int = 0
    #: streaming (coalesced) device-memory traffic in bytes — costed
    #: against the device bandwidth, not per-lane latency
    coalesced_bytes: int = 0


class KernelContext:
    """Recording handle passed to functional kernel bodies.

    A kernel body calls the ``add_*`` methods to describe the work a real
    CUDA kernel would perform; :meth:`record_atomics` takes a batch's
    :func:`~repro.gpusim.atomics.collision_profile`.
    """

    def __init__(self, name: str, geometry: LaunchGeometry, config: DeviceConfig):
        self.name = name
        self.geometry = geometry
        self.config = config
        self.stats = KernelStats(name=name, threads=geometry.threads)
        #: Where the launch sat on its stream (simulated ns), set by
        #: :meth:`~repro.gpusim.device.Device.kernel` once the body
        #: returns: a launch is its own timing record.
        self.start_ns = self.duration_ns = 0.0
        #: Free-form annotations that end up in the kernel's trace span
        #: ``args`` when a tracer is attached (e.g. the conflict log's
        #: per-side registration counts).  Always recordable; simply
        #: discarded when no tracer consumes them.
        self.trace_args: dict[str, float] = {}

    # -- explicit event recording ---------------------------------------
    def add_instructions(self, count: int, per_thread: bool = False) -> None:
        n = count * self.geometry.threads if per_thread else count
        self.stats.instructions += int(n)

    def add_global_reads(self, count: int) -> None:
        self.stats.global_reads += int(count)

    def add_global_writes(self, count: int) -> None:
        self.stats.global_writes += int(count)

    def add_shared_accesses(self, count: int) -> None:
        self.stats.shared_accesses += int(count)

    def add_divergent_branches(self, count: int) -> None:
        self.stats.divergent_branches += int(count)

    def add_coalesced_bytes(self, nbytes: int) -> None:
        self.stats.coalesced_bytes += int(nbytes)

    def add_page_faults(self, count: int) -> None:
        self.stats.um_page_faults += int(count)

    def add_trace_arg(self, key: str, value: float) -> None:
        """Annotate this launch's trace span (accumulates on repeats)."""
        self.trace_args[key] = self.trace_args.get(key, 0) + value

    def record_atomics(self, total_ops: int, serialized: int, max_chain: int) -> None:
        """Record a batch of atomic operations.

        ``serialized`` counts operations that had to wait behind another
        op on the same address; ``max_chain`` is the longest per-address
        chain (its length bounds the critical path).
        """
        self.stats.atomic_ops += int(total_ops)
        self.stats.atomic_serialized += int(serialized)
        self.stats.atomic_max_chain = max(self.stats.atomic_max_chain, int(max_chain))
