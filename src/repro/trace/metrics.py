"""Counter / gauge / histogram registry for engine observability.

The simulator already *computes* the paper's diagnostic signals — atomic
serialization chains (§V-C, Table VII), warp divergence (§V-B),
conflict-log bucket pressure, abort reasons — but until now threw them
away after costing.  A :class:`MetricsRegistry` gives them a durable
home: the engine populates it per batch (when ``LTPGConfig.trace`` is
on) and the bench harness / trace CLI export :meth:`snapshot` as JSON.

Three instrument kinds, mirroring the usual metrics vocabulary:

* :class:`Counter` — monotone totals (atomic ops issued, serialized ops,
  divergent branches, committed transactions);
* :class:`Gauge` — last/extreme values (bucket load factor, occupancy,
  longest atomic chain seen);
* :class:`Histogram` — value -> count distributions over either numeric
  values (reschedule depth) or labels (abort reason).

Everything is plain Python ints/floats — deterministic, orderable, and
cheap enough that populating the registry never shows in the perf gate.
"""

from __future__ import annotations

from array import array
from collections import Counter as _CounterDict
from typing import Any


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value, with optional running extremes."""

    __slots__ = ("name", "value", "max", "min", "_samples", "_total")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max = float("-inf")
        self.min = float("inf")
        self._samples = 0
        self._total = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.max = max(self.max, self.value)
        self.min = min(self.min, self.value)
        self._samples += 1
        self._total += self.value

    @property
    def mean(self) -> float:
        return self._total / self._samples if self._samples else 0.0


class Histogram:
    """A value -> count distribution (numeric values or string labels)."""

    __slots__ = ("name", "counts")

    def __init__(self, name: str):
        self.name = name
        self.counts: _CounterDict = _CounterDict()

    def observe(self, value: int | str, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"histogram {self.name!r} count must be >= 0")
        if count:
            self.counts[value] += count

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class LatencyDigest:
    """Exact-value latency digest: every observed sample is kept, so
    percentiles are the true order statistics rather than bucket
    approximations — affordable because serve/bench runs observe at
    most a few hundred thousand samples, and required because the serve
    differential tests assert *byte-identical* percentile output across
    runs.  Uses the same nearest-rank definition as
    :meth:`repro.core.stats.RunStats.latency_percentile`.

    The samples and their sorted copy are ``array('q')`` buffers, not
    lists: a garbage collection late in a long served run visits each
    buffer once instead of walking one object per sample."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str = "latency"):
        self.name = name
        self._values = array("q")
        self._sorted: array | None = None

    def observe(self, value_ns: int | float) -> None:
        self._values.append(int(value_ns))
        self._sorted = None

    def extend(self, values_ns: list[int]) -> None:
        """A whole batch of integer samples at once."""
        self._values.fromlist(values_ns)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return sum(self._values) / len(self._values) if self._values else 0.0

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile in the observed unit (p in [0, 100])."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self._values:
            return 0
        if self._sorted is None:
            self._sorted = array("q", sorted(self._values))
        ordered = self._sorted
        rank = min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1)))
        return ordered[rank]

    def summary(self) -> dict[str, Any]:
        """JSON-ready percentile block (ns unless the caller observed
        another unit)."""
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.percentile(100),
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view: sorted, plain types only."""
        out: dict[str, Any] = {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: {
                    "last": g.value,
                    "min": g.min if g._samples else 0.0,
                    "max": g.max if g._samples else 0.0,
                    "mean": g.mean,
                }
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {str(k): v for k, v in sorted(h.counts.items(),
                                                    key=lambda kv: str(kv[0]))}
                for name, h in sorted(self._histograms.items())
            },
        }
        return out

    def render(self) -> str:
        """A compact human-readable summary (CLI output)."""
        lines = ["metrics:"]
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            lines.append(f"  {name} = {value}")
        for name, g in snap["gauges"].items():
            lines.append(
                f"  {name} = {g['last']:.4g} "
                f"(min {g['min']:.4g}, mean {g['mean']:.4g}, max {g['max']:.4g})"
            )
        for name, h in snap["histograms"].items():
            body = ", ".join(f"{k}: {v}" for k, v in h.items())
            lines.append(f"  {name} = {{{body}}}")
        return "\n".join(lines)
