"""Deterministic random helpers shared by the workload generators.

Everything takes an explicit ``numpy.random.Generator`` so workloads are
reproducible from a seed — a hard requirement for the determinism tests
and for batch-identical re-runs across engines.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


class ZipfGenerator:
    """Bounded Zipfian sampler over ``0..n-1`` with exponent ``alpha``.

    Uses an exact inverse-CDF table, so extreme exponents (the paper's
    YCSB uses alpha = 2.5) are handled without rejection sampling.
    Tables are cached per (n, alpha).
    """

    _cache: dict[tuple[int, float], np.ndarray] = {}

    def __init__(self, n: int, alpha: float):
        if n <= 0:
            raise WorkloadError("zipf domain must be non-empty")
        if alpha < 0:
            raise WorkloadError("zipf exponent must be non-negative")
        self.n = n
        self.alpha = alpha
        key = (n, round(alpha, 6))
        cdf = self._cache.get(key)
        if cdf is None:
            ranks = np.arange(1, n + 1, dtype=np.float64)
            weights = ranks ** (-alpha)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            if len(self._cache) > 8:  # bound the cache
                self._cache.clear()
            self._cache[key] = cdf
        self._cdf = cdf

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` ranks in 0..n-1, rank 0 most popular."""
        u = rng.random(size)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def sample_one(self, rng: np.random.Generator) -> int:
        """One rank; draws exactly what ``sample(rng, 1)`` draws (one
        double), without the array round trip."""
        return int(self._cdf.searchsorted(rng.random(), side="left"))
