"""Admission control, shed semantics, and fault containment.

Overload and failure are the serving layer's job to make *boring*:
typed rejections with actionable fields (never silent drops), flooding
tenants throttled without collateral damage, and an engine exception
failing exactly its own batch while the ingress keeps serving.
"""

from __future__ import annotations

import asyncio

import pytest
from helpers import StubEngine

from repro.errors import ReproError
from repro.serve.admission import (
    AdmissionController,
    TenantQuota,
    TokenBucket,
)
from repro.serve.clock import SimClock, run_simulation
from repro.serve.errors import (
    BatchExecutionError,
    IngressClosed,
    QueueFullRejected,
    ServeError,
    TenantThrottled,
    VirtualTimeDeadlock,
)
from repro.serve.orchestrator import Orchestrator
from repro.serve.policies import SizePolicy

pytestmark = pytest.mark.serve


# -- token bucket arithmetic (pure, no loop) ----------------------------


def test_token_bucket_exact_refill():
    bucket = TokenBucket(rate_per_s=1_000_000.0, burst=2.0)  # 1 token/us
    assert bucket.try_take(0)
    assert bucket.try_take(0)
    assert not bucket.try_take(0)  # burst exhausted
    assert bucket.try_take(1_000)  # exactly one refill interval later
    assert not bucket.try_take(1_000)
    # retry_after names the exact instant the next token exists
    wait = bucket.retry_after_ns(1_000)
    assert wait > 0
    assert not bucket.try_take(1_000 + wait - 1)
    assert bucket.try_take(1_000 + wait)


def test_token_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate_per_s=1e9, burst=3.0)
    taken = sum(1 for _ in range(10) if bucket.try_take(10**12))
    assert taken == 3


def test_queue_full_shed_spends_no_token():
    """Only an admitted request takes a token: admit, queue-full shed,
    admit again leaves a burst-2 tenant one admission, not throttled."""
    admission = AdmissionController(
        max_queue_depth=1, default_quota=TenantQuota(rate_per_s=1, burst=2)
    )
    admission.admit("acme", queue_depth=0, now_ns=0)
    with pytest.raises(QueueFullRejected):
        admission.admit("acme", queue_depth=1, now_ns=0)
    admission.admit("acme", queue_depth=0, now_ns=0)
    assert admission.shed_counts == {"queue_full": 1}
    # both tokens are spent now: the throttle is still checked first
    with pytest.raises(TenantThrottled):
        admission.admit("acme", queue_depth=1, now_ns=0)


# -- typed shedding -----------------------------------------------------


def test_queue_full_rejection_is_typed():
    """A bounded queue sheds with every field a client needs to react."""
    engine = StubEngine(batch_size=4, latency_ns=10_000)
    admission = AdmissionController(max_queue_depth=6)

    async def main():
        orch = Orchestrator(
            engine, policy=SizePolicy(4), admission=admission
        )
        async with orch:
            futures = [orch.post("noop", (i,)) for i in range(6)]
            with pytest.raises(QueueFullRejected) as exc_info:
                orch.post("noop", (99,), tenant="acme")
            await asyncio.sleep(0)
            return exc_info.value, futures

    exc, futures = run_simulation(main())
    assert exc.reason == "queue_full"
    assert exc.tenant == "acme"
    assert exc.queue_depth == 6
    assert exc.max_depth == 6
    assert isinstance(exc, ServeError)
    assert isinstance(exc, ReproError)
    # the shed request never got a future; the admitted six all resolve
    assert all(f.result().committed for f in futures)
    assert admission.shed_counts == {"queue_full": 1}


def test_token_bucket_isolates_flooding_tenant():
    """One tenant flooding past its quota is throttled; a well-behaved
    tenant on the same ingress sails through untouched."""
    engine = StubEngine(batch_size=8, latency_ns=0)
    admission = AdmissionController(
        max_queue_depth=10_000,
        default_quota=TenantQuota(rate_per_s=1e6, burst=4.0),
    )

    async def main():
        throttled = []
        good, flood = [], []
        async with Orchestrator(
            engine, policy=SizePolicy(8), admission=admission
        ) as orch:
            for i in range(40):
                # flooder submits 10x faster than its refill rate
                await orch.clock.sleep_ns(100)
                try:
                    flood.append(orch.post("noop", (i,), tenant="flood"))
                except TenantThrottled as exc:
                    throttled.append(exc)
                if i % 10 == 0:  # the polite tenant stays within quota
                    good.append(orch.post("noop", (1000 + i,), tenant="calm"))
        return throttled, good, flood

    throttled, good, flood = run_simulation(main())
    assert throttled, "the flooding tenant must get throttled"
    for exc in throttled:
        assert exc.reason == "tenant_throttled"
        assert exc.tenant == "flood"
        assert exc.retry_after_ns > 0
    # isolation: every polite-tenant request was admitted and committed
    assert len(good) == 4
    assert all(f.result().committed for f in good)
    # the flooder's *admitted* requests still complete normally
    assert all(f.result().committed for f in flood)
    assert admission.shed_counts["tenant_throttled"] == len(throttled)


def test_post_after_drain_raises_ingress_closed():
    engine = StubEngine(batch_size=2)

    async def main():
        orch = Orchestrator(engine, policy=SizePolicy(2))
        async with orch:
            fut = orch.post("noop", (0,))
        with pytest.raises(IngressClosed):
            orch.post("noop", (1,))
        return await fut

    response = run_simulation(main())
    assert response.committed


# -- fault containment --------------------------------------------------


class _ExplodingEngine(StubEngine):
    """Commits everything unless the batch contains a "boom" request —
    then the whole run_batch call raises, like a real engine fault."""

    def run_batch(self, batch):
        if any(t.procedure_name == "boom" for t in batch):
            self.batches.append([(t.procedure_name, t.tid) for t in batch])
            raise RuntimeError("device fault")
        return super().run_batch(batch)


def test_engine_exception_fails_batch_without_deadlock():
    """A mid-run engine exception must fail exactly the futures of the
    batch it killed — typed, cause preserved — and the loop must keep
    serving later batches (no deadlock, no poisoned queue)."""
    engine = _ExplodingEngine(batch_size=4)

    async def main():
        async with Orchestrator(engine, policy=SizePolicy(4)) as orch:
            first = [orch.post("noop", (i,)) for i in range(4)]
            await asyncio.sleep(0)
            doomed = [orch.post("boom" if i == 2 else "noop", (10 + i,))
                      for i in range(4)]
            await asyncio.sleep(0)
            after = [orch.post("noop", (20 + i,)) for i in range(4)]
            results = await asyncio.gather(
                *first, *doomed, *after, return_exceptions=True
            )
            return results, orch

    results, orch = run_simulation(main())
    first, doomed, after = results[:4], results[4:8], results[8:]
    assert all(r.committed for r in first)
    assert all(r.committed for r in after), "loop must survive the fault"
    for r in doomed:
        assert isinstance(r, BatchExecutionError)
        assert isinstance(r.cause, RuntimeError)
        assert r.batch_index == 1
    assert orch.metrics.counter("serve.batch_failures").value == 1
    assert orch.metrics.counter("serve.committed").value == 8


def test_virtual_deadlock_is_detected_not_hung():
    """A coroutine awaiting a future nothing will resolve raises
    VirtualTimeDeadlock instead of hanging the suite."""

    async def main():
        await asyncio.get_running_loop().create_future()

    with pytest.raises(VirtualTimeDeadlock):
        run_simulation(main())


@pytest.mark.parametrize("sessions", [32, 64])
def test_a_closed_loop_under_a_size_only_cut_is_refused(sessions):
    """``python -m repro.serve --mode closed --policy size`` (batch 64):
    the last requests of the sessions never fill a batch and the ingress
    drains only after every session has finished, so the run would never
    end; it is refused up front, naming the policies that do end."""
    from repro.serve.api import simulate_serve

    with pytest.raises(ServeError, match="hybrid.*deadline") as refused:
        simulate_serve("smallbank", mode="closed", policy="size", sessions=sessions)
    assert not isinstance(refused.value, VirtualTimeDeadlock)


def test_sim_clock_requires_running_loop():
    clock = SimClock()
    with pytest.raises(RuntimeError):
        clock.now_ns()
