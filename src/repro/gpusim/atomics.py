"""Contention accounting for batches of device atomics.

Real GPU atomics on the same address serialize; the paper's dynamic hash
bucket design exists precisely to shorten those serialization chains.
The simulator does not execute atomics one by one: a kernel computes its
result with NumPy and records, into its
:class:`~repro.gpusim.kernel.KernelContext`, how many operations
collided and the longest per-address chain — :func:`collision_profile`
is that count.
"""

from __future__ import annotations

import numpy as np


def collision_profile(indices: np.ndarray) -> tuple[int, int, int]:
    """Return ``(total_ops, serialized_ops, max_chain)`` for a batch of
    atomic operations addressed by ``indices``.

    ``serialized_ops`` is the number of operations that wait behind an
    earlier op on the same address (i.e. ``count - 1`` summed over
    addresses); ``max_chain`` is the largest per-address count.
    """
    total = int(indices.size)
    if total == 0:
        return 0, 0, 0
    _, counts = np.unique(np.asarray(indices), return_counts=True)
    serialized = int((counts - 1).sum())
    return total, serialized, int(counts.max())
