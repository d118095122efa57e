"""Contention accounting for batches of atomics."""

from __future__ import annotations

import numpy as np

from repro.gpusim.atomics import collision_profile


class TestCollisionProfile:
    def test_empty(self):
        assert collision_profile(np.array([], dtype=np.int64)) == (0, 0, 0)

    def test_all_distinct(self):
        total, serialized, chain = collision_profile(np.arange(10))
        assert (total, serialized, chain) == (10, 0, 1)

    def test_all_same(self):
        total, serialized, chain = collision_profile(np.zeros(8, dtype=np.int64))
        assert (total, serialized, chain) == (8, 7, 8)

    def test_sparse_large_addresses(self):
        # Must not allocate dense arrays over a huge address range.
        idx = np.array([0, 10**15, 10**15], dtype=np.int64)
        total, serialized, chain = collision_profile(idx)
        assert (total, serialized, chain) == (3, 1, 2)
