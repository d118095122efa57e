"""CUDA-style streams and events for the simulator.

Each stream carries an independent timeline (its "ready" timestamp in
simulated nanoseconds).  Work enqueued on a stream starts at the
stream's current time; ``Event``s let one stream wait on another, which
is how the batch-to-batch pipeline (paper §V-E) overlaps the copy of
batch *n+1* with the execution of batch *n*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import DeviceError

if TYPE_CHECKING:  # imported for annotations only; no runtime cycle
    from repro.trace.tracer import Tracer


@dataclass
class Event:
    """A recorded point on a stream's timeline."""

    name: str
    timestamp_ns: float = 0.0
    recorded: bool = False
    #: flow-arrow id assigned by an attached tracer (-1 = untraced)
    flow_id: int = -1


class Stream:
    """An in-order queue of simulated work with its own clock."""

    def __init__(self, name: str, tracer: "Tracer | None" = None):
        self.name = name
        self.time_ns = 0.0
        #: optional span recorder: record/wait event pairs become flow
        #: arrows so cross-stream ordering is visible in the trace
        self.tracer = tracer

    def enqueue(self, duration_ns: float) -> float:
        """Run a unit of work of ``duration_ns`` on this stream.
        Returns the completion time."""
        if duration_ns < 0:
            raise DeviceError("work duration must be non-negative")
        self.time_ns += duration_ns
        return self.time_ns

    def record_event(self, event: Event) -> Event:
        event.timestamp_ns = self.time_ns
        event.recorded = True
        if self.tracer is not None:
            event.flow_id = self.tracer.flow_start(
                event.name, self.name, event.timestamp_ns
            )
        return event

    def wait_event(self, event: Event) -> None:
        """Stall this stream until ``event`` has completed."""
        if not event.recorded:
            raise DeviceError(f"event {event.name!r} has not been recorded")
        self.time_ns = max(self.time_ns, event.timestamp_ns)
        if self.tracer is not None and event.flow_id >= 0:
            self.tracer.flow_finish(
                event.name, event.flow_id, self.name, self.time_ns
            )

    def advance_to(self, time_ns: float) -> None:
        self.time_ns = max(self.time_ns, time_ns)
