"""Pluggable "when do we cut a batch" strategies.

LTPG's premise is that huge batches are *formed* from a live stream of
single-transaction requests, and the forming policy is the knob that
trades client latency for GPU-scale throughput: wait longer and the
batch is bigger (better device utilization, worse queue wait); cut
early and clients see low latency but the kernel launches are small.

Each policy is a small strategy object over an immutable
:class:`QueueView` snapshot — the orchestrator asks two questions:

* :meth:`BatchPolicy.should_cut` — cut a batch *now*?
* :meth:`BatchPolicy.next_deadline_ns` — absent new arrivals, at what
  virtual time must the question be asked again (``None`` = only a new
  arrival can change the answer)?

Keeping the decision a pure function of the snapshot is what makes
every policy deterministic on the virtual clock and directly
Hypothesis-testable without an event loop in sight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.serve.errors import ServeError

#: Registered policy names for CLIs (``make_policy``).
POLICY_NAMES = ("size", "deadline", "hybrid")


@dataclass(frozen=True)
class QueueView:
    """What a policy may look at when deciding to cut."""

    #: requests eligible for the next batch (retries serving a pipeline
    #: delay are excluded — they cannot join it anyway)
    eligible: int
    #: virtual-clock enqueue time of the oldest eligible request
    #: (``None`` when the queue is empty)
    oldest_enqueue_ns: int | None
    #: current virtual time
    now_ns: int
    #: the ingress is closed and flushing its remainder
    draining: bool


class BatchPolicy(ABC):
    """Decides when the ingress queue becomes an execution batch."""

    #: human/CLI name of the strategy
    name: str = "abstract"

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ServeError("batch capacity must be positive")
        #: hard cap on batch size (the scheduler enforces it; policies
        #: use it to cut before the queue overruns a full batch)
        self.capacity = capacity

    @abstractmethod
    def should_cut(self, q: QueueView) -> bool:
        """True when a batch must be cut from this queue state."""

    @abstractmethod
    def next_deadline_ns(self, q: QueueView) -> int | None:
        """Virtual time at which :meth:`should_cut` may flip to True
        without any new arrival, or ``None`` if only arrivals matter."""

    def describe(self) -> str:
        return f"{self.name}(capacity={self.capacity})"


class SizePolicy(BatchPolicy):
    """Cut exactly when a full batch is waiting (throughput-greedy).

    The pre-generated benchmark path in
    :func:`repro.bench.steady_state_run` is this policy with an
    always-full queue, which is why a served stream under
    ``SizePolicy`` commits byte-identical state to the pre-assembled
    batch sequence (see ``tests/test_serve_equivalence.py``).
    """

    name = "size"

    def should_cut(self, q: QueueView) -> bool:
        if q.eligible >= self.capacity:
            return True
        return q.draining and q.eligible > 0

    def next_deadline_ns(self, q: QueueView) -> int | None:
        return None  # only arrivals (or drain) can fill the batch


class DeadlinePolicy(BatchPolicy):
    """Cut when the oldest waiting request has aged ``max_wait_ns``
    (latency-greedy), or when a full batch accumulates first — the
    overflow guard that keeps queue wait bounded under bursts."""

    name = "deadline"

    def __init__(self, capacity: int, max_wait_ns: int):
        super().__init__(capacity)
        if max_wait_ns < 0:
            raise ServeError("max_wait_ns must be >= 0")
        self.max_wait_ns = max_wait_ns

    def should_cut(self, q: QueueView) -> bool:
        if q.eligible <= 0:
            return False
        if q.eligible >= self.capacity or q.draining:
            return True
        assert q.oldest_enqueue_ns is not None
        return q.now_ns - q.oldest_enqueue_ns >= self.max_wait_ns

    def next_deadline_ns(self, q: QueueView) -> int | None:
        if q.eligible <= 0 or q.oldest_enqueue_ns is None:
            return None
        return q.oldest_enqueue_ns + self.max_wait_ns

    def describe(self) -> str:
        return (
            f"{self.name}(capacity={self.capacity}, "
            f"max_wait_ns={self.max_wait_ns})"
        )


def make_policy(
    name: str,
    capacity: int,
    max_wait_ns: int = 1_000_000,
) -> BatchPolicy:
    """Build a policy by CLI name (see :data:`POLICY_NAMES`).
    ``"hybrid"`` — size or deadline, whichever comes first — is what
    :class:`DeadlinePolicy` does, under the name configurations use for
    the production default."""
    if name == "size":
        return SizePolicy(capacity)
    if name in ("deadline", "hybrid"):
        return DeadlinePolicy(capacity, max_wait_ns)
    raise ServeError(
        f"unknown batch policy {name!r}; expected one of {POLICY_NAMES}"
    )
