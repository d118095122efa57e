"""What ``Orchestrator.post`` returns is its own awaitable.

The admitted request implements asyncio's future-like protocol instead
of holding an ``asyncio.Future``.  The first half runs one table of
scenarios against both a real ``Future`` and a posted request, so every
expectation is stated once and has to hold for the two alike; the
second half pins what is particular to the ticket — the documented
differences, the queue it stays in when cancelled, and the *counts*
(tracked objects per request, loop callbacks per batch) the change
exists for.
"""

from __future__ import annotations

import asyncio
import contextvars
import gc
from collections import Counter
from functools import partial

import pytest
from helpers import StubEngine

from repro.analysis.workload import build_workload
from repro.serve import ServeTicket
from repro.serve.clock import run_simulation
from repro.serve.errors import BatchExecutionError
from repro.serve.orchestrator import Orchestrator, ServeResponse, _deliver
from repro.serve.policies import SizePolicy
from repro.txn.transaction import TxnStatus

pytestmark = pytest.mark.serve


# -- the two subjects ----------------------------------------------------


class FutureKit:
    """Plain ``asyncio.Future`` objects, completed by hand."""

    def __init__(self, fail: bool):
        self.fail = fail
        self.made: list[asyncio.Future] = []

    def new(self) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.made.append(future)
        return future

    async def settle(self) -> None:
        """Complete everything still pending, in creation order, and let
        the loop deliver."""
        error = BatchExecutionError(0, RuntimeError("device fault"))
        for n, future in enumerate(self.made):
            if future.done():
                continue
            if self.fail:
                future.set_exception(error)
            else:
                future.set_result(
                    ServeResponse(TxnStatus.COMMITTED, n, 1, "", 0, 0, 0)
                )
        await asyncio.sleep(0)


def _device_fault(txn):
    raise RuntimeError("device fault")


class TicketKit:
    """Requests posted at an orchestrator that cuts nothing until it
    drains, so they stay pending until :meth:`settle`."""

    def __init__(self, fail: bool):
        # a verdict that raises makes the whole run_batch call raise
        engine = StubEngine(batch_size=64, verdict=_device_fault if fail else None)
        self.orch = Orchestrator(engine, policy=SizePolicy(64))
        self.made: list[ServeTicket] = []

    def new(self) -> ServeTicket:
        ticket = self.orch.post("noop", (len(self.made),))
        self.made.append(ticket)
        return ticket

    async def settle(self) -> None:
        await self.orch.drain()


KITS = {"future": FutureKit, "ticket": TicketKit}


# -- the scenarios: each takes a kit, asserts, returns nothing ----------


async def is_a_pending_future(kit):
    subject = kit.new()
    assert asyncio.isfuture(subject)
    assert subject.get_loop() is asyncio.get_running_loop()
    assert not subject.done() and not subject.cancelled()
    with pytest.raises(asyncio.InvalidStateError):
        subject.result()
    with pytest.raises(asyncio.InvalidStateError):
        subject.exception()
    await kit.settle()
    assert subject.done() and not subject.cancelled()


async def await_returns_the_response(kit):
    subject = kit.new()

    async def waiter():
        return await subject

    task = asyncio.ensure_future(waiter())
    await asyncio.sleep(0)  # the task is now parked on the subject
    assert not task.done()
    await kit.settle()
    response = await task
    assert isinstance(response, ServeResponse) and response.committed
    assert subject.result() is response and subject.exception() is None
    assert await subject is response  # awaiting a done one does not park


async def await_raises_the_failure(kit):
    subject = kit.new()
    task = asyncio.ensure_future(asyncio.wait_for(subject, timeout=None))
    await kit.settle()
    with pytest.raises(BatchExecutionError) as caught:
        await task
    assert isinstance(caught.value.cause, RuntimeError)
    assert subject.exception() is caught.value
    with pytest.raises(BatchExecutionError):
        subject.result()


async def gather_collects_results(kit):
    subjects = [kit.new() for _ in range(3)]
    gathered = asyncio.gather(*subjects, subjects[0], return_exceptions=True)
    await kit.settle()
    outcomes = await gathered
    assert [o.committed for o in outcomes] == [True] * 4
    assert outcomes[3] is outcomes[0]  # the duplicate argument


async def gather_collects_failures(kit):
    subjects = [kit.new() for _ in range(3)]
    gathered = asyncio.gather(*subjects, return_exceptions=True)
    await kit.settle()
    outcomes = await gathered
    assert all(isinstance(o, BatchExecutionError) for o in outcomes)
    with pytest.raises(BatchExecutionError):
        await asyncio.gather(*subjects)


async def callback_added_before_completion(kit):
    subject, calls = kit.new(), []
    subject.add_done_callback(calls.append)
    assert calls == []
    await kit.settle()
    assert calls == [subject]  # once, with the subject itself


async def callback_added_after_completion(kit):
    subject, calls = kit.new(), []
    await kit.settle()
    subject.add_done_callback(calls.append)
    assert calls == []  # never synchronously
    await asyncio.sleep(0)
    assert calls == [subject]


async def callbacks_run_in_order(kit):
    """Registration order on one subject (the second and third take the
    ticket's overflow list), completion order across subjects."""
    subjects, calls = [kit.new() for _ in range(3)], []
    for n, subject in enumerate(subjects):
        for tag in "abc":
            subject.add_done_callback(lambda _s, n=n, tag=tag: calls.append((n, tag)))
    await kit.settle()
    assert calls == [(n, tag) for n in range(3) for tag in "abc"]


async def removed_callback_does_not_run(kit):
    subject, calls = kit.new(), []

    def first(_s):
        calls.append("first")

    def second(_s):
        calls.append("second")

    for fn in (first, second, first, second):
        subject.add_done_callback(fn)
    assert subject.remove_done_callback(first) == 2
    assert subject.remove_done_callback(first) == 0
    await kit.settle()
    assert calls == ["second", "second"]
    assert subject.remove_done_callback(second) == 0  # already delivered


async def raising_callback_does_not_starve_the_rest(kit):
    loop = asyncio.get_running_loop()
    reported, calls = [], []
    loop.set_exception_handler(lambda _loop, context: reported.append(context))

    def bad(_s):
        raise ValueError("callback bug")

    first, second = kit.new(), kit.new()
    first.add_done_callback(bad)
    first.add_done_callback(calls.append)  # behind it on the same subject
    second.add_done_callback(calls.append)  # behind it in the same batch
    await kit.settle()
    assert calls == [first, second]
    assert len(reported) == 1
    assert isinstance(reported[0]["exception"], ValueError)
    assert "bad" in reported[0]["message"]


async def cancel_while_pending(kit):
    subject, calls = kit.new(), []
    subject.add_done_callback(calls.append)
    assert subject.cancel() is True
    assert subject.cancelled() and subject.done()
    assert calls == []  # delivered by the loop, not by cancel()
    await asyncio.sleep(0)
    assert calls == [subject]
    assert subject.cancel() is False
    with pytest.raises(asyncio.CancelledError):
        subject.result()
    with pytest.raises(asyncio.CancelledError):
        subject.exception()
    with pytest.raises(asyncio.CancelledError):
        await subject
    await kit.settle()  # whatever completes the others leaves it alone
    assert subject.cancelled() and calls == [subject]


async def gather_reports_a_cancelled_child(kit):
    kept, dropped = kit.new(), kit.new()
    gathered = asyncio.gather(kept, dropped, return_exceptions=True)
    dropped.cancel("not interested")
    await kit.settle()
    response, error = await gathered
    assert response.committed
    assert isinstance(error, asyncio.CancelledError)
    assert error.args == ("not interested",)


async def wait_for_times_out_cleanly(kit):
    subject = kit.new()
    with pytest.raises(asyncio.TimeoutError):
        await asyncio.wait_for(subject, timeout=1e-6)
    assert subject.cancelled()
    await kit.settle()


async def cancelling_the_awaiting_task_cancels_the_subject(kit):
    subject = kit.new()

    async def waiter():
        await subject

    task = asyncio.ensure_future(waiter())
    await asyncio.sleep(0)
    task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await task
    assert subject.cancelled()
    await kit.settle()


SCENARIOS = [
    (is_a_pending_future, False),
    (await_returns_the_response, False),
    (await_raises_the_failure, True),
    (gather_collects_results, False),
    (gather_collects_failures, True),
    (callback_added_before_completion, False),
    (callback_added_before_completion, True),
    (callback_added_after_completion, False),
    (callbacks_run_in_order, False),
    (callbacks_run_in_order, True),
    (removed_callback_does_not_run, False),
    (raising_callback_does_not_starve_the_rest, False),
    (raising_callback_does_not_starve_the_rest, True),
    (cancel_while_pending, False),
    (gather_reports_a_cancelled_child, False),
    (wait_for_times_out_cleanly, False),
    (cancelling_the_awaiting_task_cancels_the_subject, False),
]


@pytest.mark.parametrize("kind", sorted(KITS))
@pytest.mark.parametrize(
    "scenario, fail",
    SCENARIOS,
    ids=[f"{fn.__name__}{'-failing' if fail else ''}" for fn, fail in SCENARIOS],
)
def test_scenario(scenario, fail, kind):
    async def main():
        await scenario(KITS[kind](fail))

    run_simulation(main())


# -- what is particular to the ticket ------------------------------------


def test_a_ticket_is_one_request_not_a_value():
    async def main():
        async with Orchestrator(StubEngine(), policy=SizePolicy(8)) as orch:
            return orch.post("noop", (1,)), orch.post("noop", (1,))

    a, b = run_simulation(main())
    assert isinstance(a, ServeTicket)
    assert a != b and a == a and len({a, b}) == 2
    assert not hasattr(a, "future")


def test_second_callback_takes_the_overflow_list():
    async def main():
        async with Orchestrator(StubEngine(), policy=SizePolicy(8)) as orch:
            ticket = orch.post("noop", (1,))
            ticket.add_done_callback(print)
            assert ticket._callback is print and ticket._more is None
            ticket.add_done_callback(repr)
            assert ticket._callback is print and ticket._more == [(repr, None)]
            assert ticket.remove_done_callback(print) == 1
            assert ticket._callback is repr and ticket._more is None
        assert ticket._callback is None  # delivered, and let go of

    run_simulation(main())


@pytest.mark.parametrize("fail", [False, True], ids=["deciding", "failing"])
def test_a_decided_batch_is_delivered_before_the_next_batch_runs(fail):
    """A closed loop of twice as many clients as lanes, each
    done-callback posting that client's next request: every request
    decided in batch k has its callbacks run before the engine starts
    batch k+1, so a client re-posts into the next batch, not the one
    after it."""
    capacity, rounds = 4, 5
    clients = 2 * capacity

    def verdict(txn):
        if fail and len(engine.batches) % 3 == 0:
            raise RuntimeError("device fault")  # the whole batch fails
        return "commit"

    engine = StubEngine(batch_size=capacity, latency_ns=1_000, verdict=verdict)
    events = []
    run_batch = engine.run_batch

    def logged_run_batch(batch):
        events.append(("run", len(orch.batch_records) - 1))
        return run_batch(batch)

    engine.run_batch = logged_run_batch
    orch = Orchestrator(engine, policy=SizePolicy(capacity))

    async def main():
        posted = [0] * clients
        all_posted = asyncio.get_running_loop().create_future()

        def post(client):
            posted[client] += 1
            orch.post("noop", (client,)).add_done_callback(partial(on_done, client))
            if sum(posted) == clients * rounds:
                all_posted.set_result(None)

        def on_done(client, ticket):
            events.append(("done", ticket.seq))
            if posted[client] < rounds:
                post(client)

        for client in range(clients):
            post(client)
        await all_posted
        await orch.drain()

    run_simulation(main())
    deciding = {}  # seq -> index of the batch that decided it (its last)
    for record in orch.batch_records:
        deciding.update(dict.fromkeys(record.seqs, record.index))
    started = {index: at for at, (kind, index) in enumerate(events) if kind == "run"}
    delivered = [(at, seq) for at, (kind, seq) in enumerate(events) if kind == "done"]
    assert len(delivered) == clients * rounds
    assert len(orch.batch_records) == clients * rounds // capacity
    if fail:
        assert orch.metrics.counter("serve.batch_failures").value > 0
    late = [
        (seq, deciding[seq])
        for at, seq in delivered
        if started.get(deciding[seq] + 1, at) < at
    ]
    assert late == []


def test_cancelled_lane_still_executes_and_counts():
    """``cancel()`` withdraws the caller, not the work."""
    engine = StubEngine(batch_size=4)

    async def main():
        calls = []
        async with Orchestrator(engine, policy=SizePolicy(4)) as orch:
            tickets = [orch.post("noop", (i,)) for i in range(4)]
            for ticket in tickets:
                ticket.add_done_callback(calls.append)
            tickets[1].cancel()
            assert orch.queue_depth == 4  # still queued
        return orch, tickets, calls

    orch, tickets, calls = run_simulation(main())
    assert engine.batches == [[("noop", tid) for tid in range(4)]]
    assert orch.metrics.snapshot()["counters"]["serve.committed"] == 4
    assert len(orch.latency) == 4
    assert tickets[1].cancelled() and tickets[1].status is TxnStatus.COMMITTED
    assert [t.result().committed for t in tickets if not t.cancelled()] == [True] * 3
    # its callback ran at the cancel; the batch's delivery did not repeat it
    assert calls == [tickets[1], tickets[0], tickets[2], tickets[3]]


_var: contextvars.ContextVar[str] = contextvars.ContextVar("_var", default="unset")


def test_callback_context_is_the_registered_one_or_the_deliverys():
    """The documented difference from ``asyncio.Future``: no implicit
    ``copy_context()`` at registration."""

    async def main():
        seen = {}

        def note(key):
            return lambda _s: seen.setdefault(key, _var.get())

        _var.set("at start")
        orch = Orchestrator(StubEngine(), policy=SizePolicy(8))
        orch.start()  # the batch task copies the context here
        _var.set("at registration")
        mine = contextvars.copy_context()
        mine.run(_var.set, "mine")

        future = asyncio.get_running_loop().create_future()
        ticket = orch.post("noop", (1,))
        for key, subject in (("future", future), ("ticket", ticket)):
            subject.add_done_callback(note(key))
            subject.add_done_callback(note(key + "+context"), context=mine)
        future.set_result(None)
        await orch.drain()
        return seen

    assert run_simulation(main()) == {
        "future": "at registration",
        "future+context": "mine",
        "ticket": "at start",
        "ticket+context": "mine",
    }


# -- counts, not clocks ---------------------------------------------------

N = 2048


def _census() -> Counter:
    """Tracked objects by type name.  ``Counter(iterable)`` would ask
    ``isinstance(iterable, Mapping)`` after the snapshot, and that first
    check fills the ABC's caches (sets, weakrefs) into the next count."""
    census: Counter = Counter()
    for obj in gc.get_objects():
        census[type(obj).__name__] += 1
    return census


def test_one_tracked_object_per_request_and_one_callback_per_batch():
    """What the collector walks and what the loop queues, per request:
    the request while it is in flight, its response once decided, and
    nothing else — no Future, Handle, Context or list each."""
    setup = build_workload("smallbank", seed=7)
    engine = setup.engine(batch_size=N)
    specs = [(t.procedure_name, t.params) for t in setup.generator.make_batch(2 * N)]
    delivered = []

    def on_done(ticket):  # one function for all: the test adds no objects
        delivered.append(None)

    async def main():
        loop = asyncio.get_running_loop()
        scheduled = []
        call_soon = loop.call_soon

        def counting_call_soon(callback, *args, **kwargs):
            scheduled.append(callback)
            return call_soon(callback, *args, **kwargs)

        async with Orchestrator(engine, policy=SizePolicy(N)) as orch:
            # a first batch fills the lazy caches and first-use registries
            # (held, so that a decided request and its response stay
            # alive to be counted)
            held = [orch.post(procedure, params) for procedure, params in specs[:N]]
            for ticket in held:
                ticket.add_done_callback(on_done)
            while not delivered:
                await orch.clock.sleep_ns(1_000)
            del delivered[:]
            # what it aborted is queued again: top the next batch up to
            # exactly full, so that one batch is cut and no second
            fresh = N - orch.queue_depth
            assert fresh > N // 8
            held += [None] * fresh

            gc.collect()
            gc.disable()
            try:
                before = _census()
                for i in range(N, N + fresh):
                    ticket = held[i] = orch.post(*specs[i])
                    ticket.add_done_callback(on_done)
                in_flight = _census()
                loop.call_soon = counting_call_soon
                while not delivered:
                    await orch.clock.sleep_ns(1_000)
                del loop.call_soon
                decided = _census()
            finally:
                gc.enable()
            done = len(delivered)
            # (a cut that only advances the retry pipeline is empty)
            batches = sum(len(record.seqs) > 0 for record in orch.batch_records)
        return before, in_flight, decided, fresh, done, batches, scheduled

    before, in_flight, decided, fresh, done, batches, scheduled = run_simulation(
        main()
    )
    assert batches == 2 and N // 8 < done <= N

    posted = in_flight - before
    assert posted["_Request"] == fresh
    # per in-flight request: the request (the 16 allows for the queues'
    # own containers growing)
    assert sum(posted.values()) <= fresh + 16, posted.most_common(5)

    resolved = decided - in_flight
    assert resolved["ServeResponse"] == done
    per_request = {name: n for name, n in resolved.items() if n >= done // 2}
    assert per_request == {"ServeResponse": done}, resolved.most_common(5)

    # one loop callback delivered the whole batch
    assert scheduled.count(_deliver) == 1
    # (the rest are this test's own polling wake-ups: nothing per request)
    assert len(scheduled) < done // 4, Counter(map(repr, scheduled)).most_common(3)
