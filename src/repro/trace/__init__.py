"""Structured tracing + metrics for the LTPG engine and GPU simulator.

Two halves:

* :mod:`repro.trace.tracer` — span-based tracing over the simulated
  clock (batch / phase / kernel / stream spans, flow arrows, counter
  series), exportable as Chrome ``trace_event`` JSON for Perfetto.
* :mod:`repro.trace.metrics` — a counter/gauge/histogram registry the
  engine populates with the signals the cost model already computes
  (atomic serialization, bucket load, warp divergence, abort reasons).

Enable both on an engine with ``LTPGConfig(trace=True)``; capture a
trace from the command line with::

    python -m repro.trace --workload tpcc --out trace.json

This module deliberately imports nothing above :mod:`repro.errors`, so
the simulator (:mod:`repro.gpusim`) can depend on it without cycles;
the CLI (:mod:`repro.trace.cli`), which drives whole workloads, is
imported only by ``python -m repro.trace``.
"""

from repro.trace.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyDigest,
    MetricsRegistry,
)
from repro.trace.tracer import (
    BATCH_TRACK,
    AsyncSpan,
    CounterSample,
    FlowEvent,
    Span,
    Tracer,
    validate_nesting,
)

__all__ = [
    "BATCH_TRACK",
    "AsyncSpan",
    "Counter",
    "CounterSample",
    "FlowEvent",
    "Gauge",
    "Histogram",
    "LatencyDigest",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "validate_nesting",
]
