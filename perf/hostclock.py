"""A clock that runs at the speed of the host.

The sandbox this benchmark runs in gives it two cores of a shared host
whose speed changes by up to 3x over everything the process does (NumPy
kernels, interpreter and garbage collector, if not all by the same
factor), in spells that last minutes — longer than a run, so no
estimator inside a run and no longer run removes them.  What does remove
most of them is a yardstick: a fixed *unit* of Python + NumPy work,
timed every quarter of a second or so from process start to the end of
the last window.  Where the unit takes twice its nominal time the host
is at half speed, and a second of wall time there counts as half a *host
second*.

:class:`HostClock` keeps the two readings apart:

* :meth:`now` is ``perf_counter`` minus the time spent inside units (and
  whatever else the harness asks to :meth:`leave_out`), so the yardstick
  is on nobody's bill;
* :meth:`host_seconds` maps such readings onto the clock that advances by
  ``NOMINAL_UNIT_S / unit time`` per second, piecewise between samples.

Every time the benchmark reports is a difference of host-clock readings;
the wall-clock values are kept beside them in the report (``raw``).  On
a quiet host the two agree.
"""

from __future__ import annotations

import gc
import random
import time
from operator import itemgetter
from typing import Sequence

import numpy as np

#: What one unit takes on this benchmark's sandbox when the host is
#: quiet (median of the in-run samples of quiet runs).  It only fixes the
#: scale of the reported times; comparisons between commits do not
#: depend on it.
NOMINAL_UNIT_S = 0.0150
#: Samples closer together than this are skipped.
MIN_GAP_S = 0.25

_FIRST = itemgetter(0)


class HostClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._keys = rng.integers(0, 1 << 40, 1 << 14)
        self._index = rng.integers(0, 1 << 14, 1 << 14)
        self._table = {i: i * 7 for i in range(1024)}
        self._rows = [(i, str(i)) for i in range(4096)]
        shuffle = random.Random(12345).shuffle
        # 11 MB of small objects, visited in an order memory does not have
        self._dense = [(i, i + 1) for i in range(100_000)]
        shuffle(self._dense)
        # and one in ten of 33 MB, so that every visit misses the caches
        self._heap = [(i, i + 1) for i in range(300_000)]
        shuffle(self._heap)
        self._sparse = self._heap[:30_000]
        self._out = 0.0
        self.at: list[float] = []    # now() when each sample was taken
        self.unit: list[float] = []  # what the unit took, s

    def now(self) -> float:
        return time.perf_counter() - self._out

    def leave_out(self, seconds: float) -> None:
        """Take ``seconds`` just spent by the caller off the clock."""
        self._out += seconds

    def _work(self) -> int:
        """The unit: sort / scan / gather as the engine's kernels do, dict
        probes and small-object churn as the serve path does, and two
        walks over heaps of small objects as the garbage collector does.
        Any one kind alone follows some of the host's moods and misses
        others (see README.md); their sum left the least spread."""
        keys, index = self._keys, self._index
        acc = 0
        for _ in range(3):
            order = np.argsort(keys, kind="stable")
            acc += int(np.cumsum(keys[order])[index].sum() & 0xFFFF)
        get = self._table.get
        for i in range(12000):
            acc += get(i & 1023) ^ i
        acc += len([(j, s) for j, s in self._rows if j & 1])
        acc += sum(map(_FIRST, self._dense))
        return acc + sum(map(_FIRST, self._sparse))

    def sample(self) -> None:
        """Time one unit now."""
        collecting = gc.isenabled()
        gc.disable()  # a collection inside the unit would be timed with it
        t0 = time.perf_counter()
        self._work()
        spent = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.at.append(t0 - self._out)
        self.unit.append(spent)
        self._out += spent

    def tick(self) -> None:
        """:meth:`sample`, unless the last one is less than
        :data:`MIN_GAP_S` old."""
        if not self.at or self.now() - self.at[-1] >= MIN_GAP_S:
            self.sample()

    def host_seconds(self, readings: Sequence[float]) -> np.ndarray:
        """``readings`` of :meth:`now` on the host-speed clock.

        Between two samples the host's speed is taken from the mean of
        the two; before the first and after the last, from that one."""
        at = np.asarray(self.at)
        unit = np.asarray(self.unit)
        speed = NOMINAL_UNIT_S / ((unit[:-1] + unit[1:]) / 2)
        knots = np.concatenate(([0.0], np.cumsum(np.diff(at) * speed)))
        t = np.asarray(readings, dtype=float)
        out = np.interp(t, at, knots)
        early, late = t < at[0], t > at[-1]
        out[early] = (t[early] - at[0]) * (NOMINAL_UNIT_S / unit[0])
        out[late] = knots[-1] + (t[late] - at[-1]) * (NOMINAL_UNIT_S / unit[-1])
        return out

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed between two readings (1.0 = nominal)."""
        if t1 <= t0:
            return 1.0
        a, b = self.host_seconds([t0, t1])
        return (b - a) / (t1 - t0)
