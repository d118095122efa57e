"""Property tests for batch-forming policies (Hypothesis, virtual clock).

Three laws, checked against randomly generated arrival traces driven
through the *real* orchestrator + virtual-time loop (no mocked queues):

* **partition** — every admitted request lands in exactly one batch;
* **capacity** — no cut batch exceeds the policy's capacity;
* **deadline bound** — under a deadline/hybrid policy with a
  zero-latency engine, no request waits in the forming queue past
  ``max_wait_ns``.  (Zero engine latency makes the bound exact: the
  loop is always free to cut the instant a deadline expires.  With
  nonzero latency the bound loosens by queueing delay — that regime is
  covered by the capacity/partition laws, which hold regardless.)

Plus pure-function properties of the policy objects themselves, which
need no event loop at all.
"""

from __future__ import annotations

import hashlib
from itertools import chain

import numpy as np
import pytest
from helpers import StubEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.workload import build_workload
from repro.serve.admission import AdmissionController
from repro.serve.clock import run_simulation
from repro.serve.errors import QueueFullRejected
from repro.serve.orchestrator import Orchestrator
from repro.serve.policies import (
    DeadlinePolicy,
    QueueView,
    SizePolicy,
    make_policy,
)

pytestmark = pytest.mark.serve

# -- pure policy properties (no loop) -----------------------------------

queue_views = st.builds(
    QueueView,
    eligible=st.integers(min_value=0, max_value=64),
    oldest_enqueue_ns=st.one_of(
        st.none(), st.integers(min_value=0, max_value=10**9)
    ),
    now_ns=st.integers(min_value=0, max_value=2 * 10**9),
    draining=st.booleans(),
)


def _coherent(q: QueueView) -> bool:
    """Views the orchestrator can actually produce."""
    if q.eligible > 0 and q.oldest_enqueue_ns is None:
        return False
    if q.oldest_enqueue_ns is not None and q.oldest_enqueue_ns > q.now_ns:
        return False
    return True


@given(q=queue_views.filter(_coherent), capacity=st.integers(1, 64))
def test_size_policy_cut_law(q: QueueView, capacity: int):
    policy = SizePolicy(capacity)
    expected = q.eligible >= capacity or (q.draining and q.eligible > 0)
    assert policy.should_cut(q) == expected
    assert policy.next_deadline_ns(q) is None


@given(
    q=queue_views.filter(_coherent),
    capacity=st.integers(1, 64),
    max_wait=st.integers(0, 10**6),
    advance=st.integers(0, 10**6),
)
def test_deadline_policy_is_monotone_in_time(
    q: QueueView, capacity: int, max_wait: int, advance: int
):
    """Once a queue state says "cut", strictly later virtual time (same
    queue) still says "cut" — deadlines never un-expire."""
    policy = DeadlinePolicy(capacity, max_wait)
    later = QueueView(
        eligible=q.eligible,
        oldest_enqueue_ns=q.oldest_enqueue_ns,
        now_ns=q.now_ns + advance,
        draining=q.draining,
    )
    if policy.should_cut(q):
        assert policy.should_cut(later)


@given(
    q=queue_views.filter(_coherent),
    capacity=st.integers(1, 64),
    max_wait=st.integers(0, 10**6),
)
def test_deadline_policy_next_deadline_is_tight(
    q: QueueView, capacity: int, max_wait: int
):
    """``next_deadline_ns`` is exactly when ``should_cut`` flips: not
    before (unless already cutting), and no later."""
    policy = DeadlinePolicy(capacity, max_wait)
    deadline = policy.next_deadline_ns(q)
    if deadline is None:
        assert q.eligible <= 0
        return
    at_deadline = QueueView(
        eligible=q.eligible,
        oldest_enqueue_ns=q.oldest_enqueue_ns,
        now_ns=max(q.now_ns, deadline),
        draining=q.draining,
    )
    assert policy.should_cut(at_deadline)
    if not policy.should_cut(q):
        assert deadline > q.now_ns


# -- end-to-end laws through the real orchestrator ----------------------

policy_specs = st.one_of(
    st.tuples(st.just("size"), st.integers(1, 8), st.just(0)),
    st.tuples(st.just("deadline"), st.integers(1, 8), st.integers(0, 5000)),
    st.tuples(st.just("hybrid"), st.integers(1, 8), st.integers(0, 5000)),
)

arrival_traces = st.lists(
    st.integers(min_value=0, max_value=2000), min_size=1, max_size=40
)


def _serve_trace(gaps, policy_name, capacity, max_wait_ns, verdict=None):
    """Post one request per arrival gap; return the orchestrator."""
    engine = StubEngine(batch_size=capacity, latency_ns=0.0, verdict=verdict)
    policy = make_policy(policy_name, capacity, max_wait_ns=max_wait_ns)

    async def main():
        orch = Orchestrator(engine, policy=policy)
        submits = []
        async with orch:
            for i, gap in enumerate(gaps):
                await orch.clock.sleep_ns(gap)
                submits.append(
                    (i, orch.clock.now_ns(), orch.post("noop", (i,)))
                )
        responses = [(i, t, await fut) for i, t, fut in submits]
        return orch, responses

    return run_simulation(main())


@settings(deadline=None, max_examples=60)
@given(gaps=arrival_traces, spec=policy_specs)
def test_every_request_in_exactly_one_batch(gaps, spec):
    name, capacity, max_wait_ns = spec
    orch, responses = _serve_trace(gaps, name, capacity, max_wait_ns)
    seen: list[int] = []
    for record in orch.batch_records:
        seen.extend(record.seqs)
    assert sorted(seen) == list(range(len(gaps)))
    assert len(seen) == len(set(seen))
    assert all(resp.committed for _i, _t, resp in responses)


@settings(deadline=None, max_examples=60)
@given(gaps=arrival_traces, spec=policy_specs)
def test_no_batch_exceeds_capacity(gaps, spec):
    name, capacity, max_wait_ns = spec
    orch, _responses = _serve_trace(gaps, name, capacity, max_wait_ns)
    assert orch.batch_records, "at least one batch must be cut"
    for record in orch.batch_records:
        assert len(record.seqs) <= capacity


@settings(deadline=None, max_examples=60)
@given(
    gaps=arrival_traces,
    capacity=st.integers(1, 8),
    max_wait_ns=st.integers(0, 5000),
    hybrid=st.booleans(),
)
def test_deadline_bound_holds_exactly(gaps, capacity, max_wait_ns, hybrid):
    """Zero-latency engine: no request's queue wait exceeds the policy's
    ``max_wait_ns`` — the forming deadline is a hard bound, not a hint."""
    name = "hybrid" if hybrid else "deadline"
    orch, responses = _serve_trace(gaps, name, capacity, max_wait_ns)
    for _i, submit_ns, resp in responses:
        assert resp.first_cut_ns - submit_ns <= max_wait_ns
        assert resp.queue_wait_ns >= 0


@settings(deadline=None, max_examples=30)
@given(
    gaps=st.lists(st.integers(0, 500), min_size=2, max_size=20),
    capacity=st.integers(1, 4),
)
def test_partition_holds_with_retries(gaps, capacity):
    """Concurrency-control aborts re-enter the queue: each *attempt*
    occupies one batch slot, and every request still resolves exactly
    once (committed on its second try)."""
    def abort_first_try(t):
        return "abort" if t.attempts == 1 else "commit"

    orch, responses = _serve_trace(
        gaps, "hybrid", capacity, 1000, verdict=abort_first_try
    )
    assert all(resp.committed for _i, _t, resp in responses)
    assert all(resp.attempts == 2 for _i, _t, resp in responses)
    placements = [seq for rec in orch.batch_records for seq in rec.seqs]
    # each request appears exactly twice (original attempt + retry)
    assert sorted(set(placements)) == list(range(len(gaps)))
    assert len(placements) == 2 * len(gaps)
    for rec in orch.batch_records:
        assert len(rec.seqs) <= capacity


class _CheckedOrchestrator(Orchestrator):
    """Asserts, on every policy check, that the oldest-entry read off the
    heads of the scheduler's queues agrees with a scan of every request
    queued there, and the depth counter with their number."""

    checks = 0

    def _view(self, draining):
        view = super()._view(draining)
        s = self._scheduler
        queued = [*s._pending, *s._retries, *chain(*s._delayed.values())]
        scanned = min((r.enqueue_ns for r in queued), default=None)
        assert view.oldest_enqueue_ns == scanned
        assert self.queue_depth == len(queued)
        self.checks += 1
        return view


@settings(deadline=None, max_examples=60)
@given(
    gaps=st.lists(st.integers(0, 400), min_size=2, max_size=40),
    spec=policy_specs,
    latency_ns=st.integers(0, 900),
    abort_mask=st.integers(0, 2**16 - 1),
)
def test_oldest_queued_request_is_the_first_entry(
    gaps, spec, latency_ns, abort_mask
):
    """Posts, cuts and retry re-entries interleave (a nonzero batch
    latency lets arrivals land while a batch runs, then its aborts
    re-enter behind them): the heads of the scheduler's queues always
    carry the smallest ``enqueue_ns``."""
    name, capacity, max_wait_ns = spec

    def verdict(t):
        # each request aborts up to twice, on attempts picked per TID
        bit = (t.tid * 2 + t.attempts - 1) % 16
        return "abort" if t.attempts <= 2 and abort_mask >> bit & 1 else "commit"

    engine = StubEngine(
        batch_size=capacity, latency_ns=float(latency_ns), verdict=verdict
    )
    policy = make_policy(name, capacity, max_wait_ns=max_wait_ns)

    async def main():
        orch = _CheckedOrchestrator(engine, policy=policy)
        futures = []
        async with orch:
            for i, gap in enumerate(gaps):
                await orch.clock.sleep_ns(gap)
                futures.append(orch.post("noop", (i,)))
        return orch, [await f for f in futures]

    orch, responses = run_simulation(main())
    assert orch.checks > 0
    assert all(r.committed for r in responses)


class _RecordingDeadline(DeadlinePolicy):
    """Records every view the orchestrator hands it, tagged by question."""

    def __init__(self, capacity, max_wait_ns):
        super().__init__(capacity, max_wait_ns)
        self.views = []

    def should_cut(self, q):
        self.views.append(("cut", q.eligible, q.oldest_enqueue_ns, q.now_ns))
        return super().should_cut(q)

    def next_deadline_ns(self, q):
        self.views.append(("wait", q.eligible, q.oldest_enqueue_ns, q.now_ns))
        return super().next_deadline_ns(q)


class _RecordingAdmission(AdmissionController):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.depths = []

    def admit(self, tenant, queue_depth, now_ns):
        self.depths.append((queue_depth, now_ns))
        super().admit(tenant, queue_depth, now_ns)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_pipelined_smallbank_views_and_admission_depths_are_pinned():
    """A pipelined SmallBank stream served under a deadline policy, with
    retries re-entering two batches late and a bounded queue shedding:
    every view the policy sees and every depth admission is asked about,
    as recorded."""
    setup = build_workload("smallbank", seed=7)
    engine = setup.engine(batch_size=16, pipelined=True)
    specs = [(t.procedure_name, t.params) for t in setup.generator.make_batch(240)]
    gaps = np.random.default_rng(3).integers(0, 12_000, size=len(specs)).tolist()
    policy = _RecordingDeadline(16, max_wait_ns=20_000)
    admission = _RecordingAdmission(max_queue_depth=24)

    async def main():
        orch = Orchestrator(engine, policy=policy, admission=admission)
        tickets = []
        async with orch:
            for (name, params), gap in zip(specs, gaps):
                await orch.clock.sleep_ns(gap)
                try:
                    tickets.append(orch.post(name, params))
                except QueueFullRejected:
                    pass
        return orch, [await t for t in tickets]

    orch, responses = run_simulation(main())
    assert orch.metrics.counter("serve.retries").value == 274
    assert orch.metrics.counter("serve.shed").value == 24
    assert len(responses) == 216
    assert len(orch.batch_records) == 50
    assert (len(policy.views), _digest(policy.views)) == (57, "4db151c9d46e19e4")
    assert (len(admission.depths), _digest(admission.depths)) == (
        240, "d872f94eca2519cf"
    )
