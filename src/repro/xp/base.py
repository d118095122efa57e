"""The array-backend protocol: the ~30 primitives the hot path uses.

The batched executor's whole data path — twin emission over a
:class:`~repro.txn.batch_context.BatchedContext`, chunk finalize,
conflict-log registration, delayed-update merge, write-back scatter —
is pure vectorized int64 array code.  :class:`ArrayBackend` names the
primitives that code is allowed to call, so the same twins run on
NumPy (the host, the pinned reference) or on the ``mockgpu`` device
(the contract checker and transfer ledger) by passing a different
``xp``.  A real device library would be a third subclass; none is
installed where this repo runs, so none is kept (ARCHITECTURE §10).

Conventions every backend must honor:

* **int64 discipline** — all data columns are int64; primitives must
  never silently upcast to float64 (exact equality across backends is
  the correctness contract; see ``mockgpu``'s upcast detector).
* **Stable sorts** — ``argsort(..., stable=True)`` and ``lexsort`` are
  stable; the batched context's byte-identity argument depends on it.
* **Explicit sync points** — ``from_host``/``to_host``/``item``/
  ``tolist`` are the only host<->device crossings.  On the NumPy
  backend they are identity (zero copies); on a device backend they
  are the paper's per-batch parameter shipping (H2D) and read/write-set
  shipping (D2H), and they are where ``mockgpu`` counts transfers.
* **Scatter ordering** — ``scatter_add`` must apply *all* updates
  (``np.add.at`` semantics, not buffered fancy-index assignment).  The
  engine only ever feeds it commutative updates (sums), so apply order
  across backends cannot change state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BackendContract:
    """The machine-readable protocol surface of :class:`ArrayBackend`.

    One source of truth for every backend: ``mockgpu`` builds its
    runtime interception (scalar-readback methods, kernel dispatch
    accounting) from this object, and the backend tests check each
    backend implements all of it.
    """

    #: The only sanctioned host<->device crossings.
    crossings: tuple[str, ...]
    #: Array methods whose no-axis form is a device reduce plus a
    #: one-word readback (sanctioned, but accounted as D2H traffic).
    scalar_readbacks: tuple[str, ...]
    #: Kernel primitives: every one is a device dispatch.
    kernels: tuple[str, ...]
    #: Scatters safe under any apply order (commutative updates only).
    commutative_scatters: tuple[str, ...]
    #: Assignment scatters: callers must guarantee WAW-disjoint indices.
    assign_scatters: tuple[str, ...]
    #: Non-kernel helpers backends expose (documentation/sync no-ops).
    auxiliary: tuple[str, ...]
    #: The dtype discipline of the hot path (results must never be
    #: floating; see mockgpu's upcast detector).
    dtype: str = "int64"

    def all_methods(self) -> frozenset[str]:
        """Every method name a disciplined call site may use on ``xp``."""
        return frozenset(self.crossings + self.kernels + self.auxiliary)


#: The pinned protocol surface (see the module docstring for the
#: conventions each group must honor).
CONTRACT = BackendContract(
    crossings=("from_host", "to_host", "item", "tolist"),
    scalar_readbacks=("min", "max", "sum", "any", "all"),
    kernels=(
        "asarray", "empty", "zeros", "ones", "full", "arange",
        "concatenate", "stack", "repeat", "broadcast_to", "where",
        "astype",
        "argsort", "lexsort", "sort", "unique", "searchsorted",
        "flatnonzero",
        "cumsum", "bincount",
        "scatter", "scatter_add",
    ),
    commutative_scatters=("scatter_add",),
    assign_scatters=("scatter",),
    auxiliary=(
        "kernel_phase", "synchronize", "device_info",
        "transfer_stats", "reset_transfers",
    ),
)


@dataclass
class TransferStats:
    """Host<->device traffic ledger for one backend instance.

    The NumPy backend leaves this at zero (there is no device);
    ``mockgpu`` accounts every crossing.  ``implicit_syncs``
    counts device-to-host round-trips that did *not* go through the
    explicit primitives — the contract violations ``mockgpu`` exists to
    catch (always zero on a disciplined hot path).
    """

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_count: int = 0
    d2h_count: int = 0
    #: kernel-primitive invocations (the dispatch-queue depth proxy)
    dispatches: int = 0
    #: unrouted host round-trips (tolist/int/iter on a device array)
    implicit_syncs: int = 0
    #: (kind, detail) event log of dispatches and syncs, in issue order
    events: list[tuple[str, str]] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Total transfer operations (both directions)."""
        return self.h2d_count + self.d2h_count

    def snapshot(self) -> dict[str, int]:
        return {
            "h2d_bytes": self.h2d_bytes,
            "d2h_bytes": self.d2h_bytes,
            "h2d_count": self.h2d_count,
            "d2h_count": self.d2h_count,
            "count": self.count,
            "dispatches": self.dispatches,
            "implicit_syncs": self.implicit_syncs,
        }


class ArrayBackend:
    """Base backend: delegates unknown attributes to the wrapped
    namespace (so ``xp.int64``, ``xp.iinfo`` etc. resolve) and declares
    the explicit protocol surface subclasses override.

    Subclasses set :attr:`name`, :attr:`module` (the wrapped array
    namespace) and :attr:`is_device` (whether arrays live off-host and
    crossings are real transfers — in which case the engine keeps the
    snapshot resident on the backend, :mod:`repro.xp.residency`).
    """

    name: str = "base"
    is_device: bool = False

    def __init__(self, module):
        self.module = module
        self.transfers = TransferStats()

    def __getattr__(self, attr):
        # Fallback for numpy-compatible members not in the protocol
        # (dtypes, iinfo, plain element-wise math).  Subclasses with
        # wrapping semantics (mockgpu) override this.
        return getattr(self.module, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ArrayBackend {self.name!r}>"

    # -- transfer ledger ----------------------------------------------------
    def transfer_stats(self) -> TransferStats:
        return self.transfers

    def reset_transfers(self) -> None:
        self.transfers = TransferStats()

    # -- kernel-phase contract ---------------------------------------------
    @contextmanager
    def kernel_phase(self, name: str):
        """Mark a device-kernel region.  ``mockgpu`` forbids implicit
        host round-trips inside it; on the host it is a no-op."""
        yield self

    def synchronize(self) -> None:
        """Block until queued device work completes (a
        ``cudaDeviceSynchronize``); no-op on host backends."""

    # -- host<->device crossings (identity on host backends) ----------------
    def from_host(self, arr):
        """Make a host array device-resident (H2D at a phase boundary)."""
        raise NotImplementedError

    def to_host(self, arr):
        """Materialize a device array on the host (D2H at a phase
        boundary); always returns a plain ``numpy.ndarray``."""
        raise NotImplementedError

    def item(self, x) -> int | float | bool:
        """One scalar off the device (a flag-word readback)."""
        raise NotImplementedError

    def tolist(self, arr) -> list:
        """Whole-array readback as a Python list (host-loop feed)."""
        raise NotImplementedError

    def device_info(self) -> dict[str, object]:
        """Identity block for bench metadata: backend name, library
        version, device description."""
        raise NotImplementedError

    def is_device_array(self, arr) -> bool:
        """Whether ``arr`` is one of this backend's device-resident
        arrays (False on host backends: there is no device side)."""
        return False

    # -- the protocol surface (documented here, bound per backend) ----------
    #: Creation: asarray, empty, zeros, ones, full, arange
    #: Combination: concatenate, stack, repeat, broadcast_to, where
    #: Sorting/search: argsort(stable=), lexsort, sort, unique,
    #:   searchsorted, flatnonzero
    #: Scans/reductions: cumsum, bincount, any, all, min, max, sum
    #: Scatter: scatter (assignment; caller guarantees disjoint
    #:   indices), scatter_add (np.add.at)
    #: Casting: astype

    def astype(self, arr, dtype, copy: bool = False):
        return arr.astype(dtype, copy=copy)

    def scatter(self, target, index, values) -> None:
        """``target[index] = values``.  Callers must guarantee disjoint
        indices (the engine's WAW rule does), so apply order across
        backends cannot change state."""
        raise NotImplementedError

    def scatter_add(self, target, index, values) -> None:
        raise NotImplementedError


__all__ = ["CONTRACT", "ArrayBackend", "BackendContract", "TransferStats"]
