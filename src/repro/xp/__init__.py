"""``repro.xp`` — the array-backend shim for the batched hot path.

Two backends, both of which run everywhere the repo does:

>>> from repro import xp
>>> backend = xp.get_backend("numpy")      # host: the pinned reference
>>> backend = xp.get_backend("mockgpu")    # device contract + transfer ledger

``numpy`` is the host: crossings are identity and the snapshot is the
table columns themselves.  ``mockgpu`` is a device (``is_device``): its
arrays live in memory of their own, every crossing is counted, and the
engine keeps the snapshot resident on it (:mod:`repro.xp.residency`) —
that is what a device backend means here, not an option beside it.

``get_backend`` raises :class:`~repro.errors.BackendError` for any
other name; :class:`~repro.core.config.LTPGConfig` rejects the same
names with ``ConfigError`` at construction, so a typo'd backend fails
before any engine state exists.

The numpy backend is a shared singleton (it is stateless: its transfer
ledger is zero by contract); a mock backend is constructed fresh per
call so each engine owns an isolated transfer ledger.
"""

from __future__ import annotations

from repro.errors import BackendError
from repro.xp.base import CONTRACT, ArrayBackend, BackendContract, TransferStats
from repro.xp.mockgpu import MockGpuBackend
from repro.xp.numpy_backend import HOST, NumpyBackend
from repro.xp.residency import DeviceTableView, ResidencyManager, ResidencyStats
from repro.xp.rows import Rows, segment_sum, sorted_runs

#: Names accepted by :func:`get_backend` / ``LTPGConfig.array_backend``.
BACKEND_NAMES = ("numpy", "mockgpu")


def get_backend(name: str) -> ArrayBackend:
    """Construct the backend called ``name``; raises
    :class:`BackendError` for names outside :data:`BACKEND_NAMES`."""
    if name == "numpy":
        return HOST
    if name == "mockgpu":
        return MockGpuBackend()
    raise BackendError(
        f"unknown array backend {name!r}; expected one of "
        f"{', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "BACKEND_NAMES",
    "CONTRACT",
    "HOST",
    "ArrayBackend",
    "BackendContract",
    "DeviceTableView",
    "MockGpuBackend",
    "NumpyBackend",
    "ResidencyManager",
    "ResidencyStats",
    "Rows",
    "TransferStats",
    "get_backend",
    "segment_sum",
    "sorted_runs",
]
