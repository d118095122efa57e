"""Span-based tracing over the simulated device clock.

A :class:`Tracer` records what happened *when* in simulated time, as a
tree of spans per **track**.  A track is one timeline — usually a CUDA
stream (``stream0``, ``h2d``, ``compute``, ``d2h``), plus the virtual
``batches`` track the engine uses for whole-batch envelopes.  Within a
track, spans nest strictly: a span opened while another is open is its
child, and must close before its parent does (the simulator's monotone
per-stream clocks guarantee this; :func:`validate_nesting` checks it).

Besides sync spans the tracer records the other three Chrome
``trace_event`` flavours the pipeline visualisation needs:

* **async spans** — batch envelopes, which legitimately overlap under
  batch-to-batch pipelining (batch *n+1*'s h2d runs while batch *n*
  computes), so they cannot live on a sync track;
* **flow events** — one arrow per CUDA event from ``record_event`` to
  each ``wait_event``, making cross-stream ordering visible;
* **counter events** — per-batch series (commit rate, atomic
  serialization, ...) that Perfetto renders as counter tracks.

Export with :meth:`Tracer.to_chrome` / :meth:`Tracer.write`; the output
loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Timestamps convert from simulated nanoseconds to
the format's microseconds at export time only — the in-memory model
stays in ns so tests can compare against stream clocks exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import DeviceError

#: Track used by the engine for whole-batch (async) envelopes.
BATCH_TRACK = "batches"


@dataclass
class Span:
    """One closed span on a track's timeline."""

    name: str
    cat: str
    track: str
    start_ns: float
    end_ns: float
    #: nesting depth within the track (0 = top level)
    depth: int
    #: index of the parent span in ``Tracer.spans`` (-1 = top level)
    parent: int
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class AsyncSpan:
    """A span that may overlap others on the same track (batch envelopes)."""

    name: str
    cat: str
    track: str
    id: int
    start_ns: float
    end_ns: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class FlowEvent:
    """One endpoint of a cross-track dependency arrow."""

    name: str
    id: int
    track: str
    ts_ns: float
    phase: str  # "s" (start) | "f" (finish)


@dataclass
class CounterSample:
    """One sample of a named counter series."""

    name: str
    ts_ns: float
    values: dict[str, float]


class _Open:
    """An open span: its index into ``Tracer.spans``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Tracer:
    """Accumulates spans, flow arrows and counter samples.

    The tracer is clock-less: callers pass simulated timestamps read off
    the stream clocks, which keeps recorded traces bit-reproducible
    across identical runs (no host time ever leaks in).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.async_spans: list[AsyncSpan] = []
        self.flows: list[FlowEvent] = []
        self.counters: list[CounterSample] = []
        self._stacks: dict[str, list[_Open]] = {}
        self._next_flow_id = 0

    # -- sync spans -----------------------------------------------------
    def begin(
        self,
        name: str,
        track: str,
        start_ns: float,
        cat: str = "engine",
        **args: Any,
    ) -> None:
        """Open a span on ``track``; it becomes the parent of spans
        recorded on the track until the matching :meth:`end`."""
        stack = self._stacks.setdefault(track, [])
        placeholder = len(self.spans)
        self.spans.append(
            Span(name, cat, track, start_ns, start_ns,
                 depth=len(stack),
                 parent=stack[-1].index if stack else -1,
                 args=dict(args))
        )
        stack.append(_Open(placeholder))

    def end(self, track: str, end_ns: float) -> Span:
        """Close the innermost open span on ``track``."""
        stack = self._stacks.get(track)
        if not stack:
            raise DeviceError(f"no open span on track {track!r}")
        open_span = stack.pop()
        span = self.spans[open_span.index]
        if end_ns < span.start_ns:
            raise DeviceError(
                f"span {span.name!r} on {track!r} would end before it "
                f"starts ({end_ns} < {span.start_ns})"
            )
        span.end_ns = end_ns
        return span

    def complete(
        self,
        name: str,
        track: str,
        start_ns: float,
        duration_ns: float,
        cat: str = "kernel",
        args: dict[str, Any] | None = None,
    ) -> Span:
        """Record an already-finished span (kernels, DMA transfers).

        Nested under whatever span is currently open on the track.
        """
        stack = self._stacks.get(track, [])
        span = Span(
            name, cat, track, start_ns, start_ns + duration_ns,
            depth=len(stack),
            parent=stack[-1].index if stack else -1,
            args=dict(args or {}),
        )
        self.spans.append(span)
        return span

    # -- async spans (overlap allowed) ----------------------------------
    def async_span(
        self,
        name: str,
        id: int,
        start_ns: float,
        end_ns: float,
        track: str = BATCH_TRACK,
        cat: str = "batch",
        args: dict[str, Any] | None = None,
    ) -> AsyncSpan:
        span = AsyncSpan(name, cat, track, id, start_ns, end_ns,
                         dict(args or {}))
        self.async_spans.append(span)
        return span

    # -- flow arrows ------------------------------------------------------
    def flow_start(self, name: str, track: str, ts_ns: float) -> int:
        """Record the source of a dependency arrow; returns its id for
        the matching :meth:`flow_finish` calls."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self.flows.append(FlowEvent(name, flow_id, track, ts_ns, "s"))
        return flow_id

    def flow_finish(self, name: str, flow_id: int, track: str,
                    ts_ns: float) -> None:
        self.flows.append(FlowEvent(name, flow_id, track, ts_ns, "f"))

    # -- counters -----------------------------------------------------------
    def counter(self, name: str, ts_ns: float, **values: float) -> None:
        self.counters.append(CounterSample(name, ts_ns, dict(values)))

    # -- lifecycle -----------------------------------------------------------
    def open_depth(self, track: str) -> int:
        return len(self._stacks.get(track, []))

    def reset(self) -> None:
        self.spans.clear()
        self.async_spans.clear()
        self.flows.clear()
        self.counters.clear()
        self._stacks.clear()
        self._next_flow_id = 0

    # -- queries ---------------------------------------------------------
    def tracks(self) -> list[str]:
        """Every track that has at least one sync span, sorted."""
        return sorted({s.track for s in self.spans})

    def spans_on(self, track: str) -> list[Span]:
        return [s for s in self.spans if s.track == track]

    def total_ns(self, name: str, track: str | None = None) -> float:
        return sum(
            s.duration_ns
            for s in self.spans
            if s.name == name and (track is None or s.track == track)
        )

    # -- export ---------------------------------------------------------
    def to_chrome(self) -> dict[str, Any]:
        """The trace as a Chrome ``trace_event`` JSON object."""
        track_ids = {
            t: i
            for i, t in enumerate(
                sorted(
                    {s.track for s in self.spans}
                    | {s.track for s in self.async_spans}
                    | {f.track for f in self.flows}
                )
            )
        }
        events: list[dict[str, Any]] = []
        for track, tid in track_ids.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                "args": {"name": track},
            })
        for span in self.spans:
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.cat,
                "pid": 0,
                "tid": track_ids[span.track],
                "ts": span.start_ns / 1e3,
                "dur": span.duration_ns / 1e3,
                "args": span.args,
            })
        for aspan in self.async_spans:
            common = {
                "name": aspan.name,
                "cat": aspan.cat,
                "pid": 0,
                "tid": track_ids[aspan.track],
                "id": aspan.id,
            }
            events.append(
                {**common, "ph": "b", "ts": aspan.start_ns / 1e3,
                 "args": aspan.args}
            )
            events.append({**common, "ph": "e", "ts": aspan.end_ns / 1e3})
        for sample in self.counters:
            events.append({
                "ph": "C",
                "name": sample.name,
                "pid": 0,
                "ts": sample.ts_ns / 1e3,
                "args": sample.values,
            })
        for flow in self.flows:
            events.append({
                "ph": flow.phase,
                "name": flow.name,
                "cat": "flow",
                "pid": 0,
                "tid": track_ids[flow.track],
                "ts": flow.ts_ns / 1e3,
                "id": flow.id,
                # arrows bind to the enclosing slice at the timestamp
                **({"bp": "e"} if flow.phase == "f" else {}),
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh, indent=1)
            fh.write("\n")


def validate_nesting(tracer: Tracer) -> list[str]:
    """Check the span-tree invariants; returns problem descriptions.

    Within a track, (i) every child span must lie inside its parent's
    interval and (ii) siblings at the same depth must not overlap.  An
    empty return means the trace is a proper forest per track.
    """
    problems: list[str] = []
    siblings: dict[tuple[str, int], list[Span]] = {}
    for span in tracer.spans:
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            if span.start_ns < parent.start_ns or span.end_ns > parent.end_ns:
                problems.append(
                    f"span {span.name!r} [{span.start_ns}, {span.end_ns}] "
                    f"escapes parent {parent.name!r} "
                    f"[{parent.start_ns}, {parent.end_ns}] on {span.track!r}"
                )
        siblings.setdefault((span.track, span.parent), []).append(span)
    for (track, _parent), group in siblings.items():
        group.sort(key=lambda s: (s.start_ns, s.end_ns))
        for left, right in zip(group, group[1:]):
            if right.start_ns < left.end_ns:
                problems.append(
                    f"siblings {left.name!r} and {right.name!r} overlap "
                    f"on {track!r}"
                )
    for track, stack in tracer._stacks.items():
        if stack:
            problems.append(
                f"track {track!r} has {len(stack)} span(s) left open"
            )
    return problems
