"""Device primitive: radix sort.

GaccO sorts its access table with a CUDA radix sort.  The primitive
here computes the sort functionally (NumPy) while recording the hardware
events a CUDA implementation would generate, so the caller gets both the
result and an honest cost contribution on its
:class:`~repro.gpusim.kernel.KernelContext`.  A radix sort streams memory
with perfectly coalesced access, so it is charged as *bandwidth* (bytes
over the device's memory bandwidth) plus per-element instructions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DeviceError
from repro.gpusim.kernel import KernelContext

#: Bits consumed per radix-sort pass (matches CUB's default).
RADIX_BITS = 8


def device_radix_sort(
    keys,
    key_bits: int = 64,
    ctx: KernelContext | None = None,
) -> np.ndarray:
    """LSD radix sort; returns the sorted keys.

    The result is exact (``np.sort``); the cost model charges
    ``ceil(key_bits / 8)`` count+scatter passes, which is what dominates
    GaccO's preprocessing time.
    """
    arr = np.asarray(keys, dtype=np.int64)
    if arr.ndim != 1:
        raise DeviceError("radix sort expects a one-dimensional array")
    if not 1 <= key_bits <= 64:
        raise DeviceError("key_bits must be in 1..64")
    if ctx is not None and arr.size:
        passes = math.ceil(key_bits / RADIX_BITS)
        ctx.add_instructions(arr.size * passes)
        # count read + scatter read + scatter write, 8B keys, coalesced
        ctx.add_coalesced_bytes(arr.size * passes * 24)
    return np.sort(arr)
