"""The NumPy reference backend: the pinned-correct implementation.

Every primitive binds straight to the ``numpy`` function it names, and
the host<->device crossings are identity (there is no device), so the
batched hot path pays zero overhead for running through the shim —
``xp.argsort`` *is* ``np.argsort``.  All other backends are checked
byte-for-byte against this one.
"""

from __future__ import annotations

import platform

import numpy as np

from repro.xp.base import ArrayBackend


class NumpyBackend(ArrayBackend):
    """Host reference backend; crossings are identity, transfers zero."""

    name = "numpy"
    is_device = False

    def __init__(self) -> None:
        super().__init__(np)

    # -- crossings: identity (no copies, no accounting) ---------------------
    def from_host(self, arr):
        return arr

    def to_host(self, arr):
        return arr

    def item(self, x):
        return x.item() if isinstance(x, np.generic | np.ndarray) else x

    def tolist(self, arr) -> list:
        return arr.tolist()

    def device_info(self) -> dict[str, object]:
        return {
            "backend": self.name,
            "library": "numpy",
            "version": np.__version__,
            "device": f"host ({platform.machine()})",
        }

    # -- sorting ------------------------------------------------------------
    @staticmethod
    def argsort(arr, stable: bool = True, axis: int = -1):
        return np.argsort(arr, axis=axis, kind="stable" if stable else None)

    # np.lexsort et al. bind directly through ``__getattr__`` delegation;
    # only primitives whose protocol signature differs are spelled out.

    # -- scatter ------------------------------------------------------------
    @staticmethod
    def scatter(target, index, values) -> None:
        target[index] = values

    @staticmethod
    def scatter_add(target, index, values) -> None:
        np.add.at(target, index, values)


#: The host backend: stateless (its transfer ledger is zero by
#: contract), so one instance serves every caller.
HOST = NumpyBackend()

__all__ = ["HOST", "NumpyBackend"]
