"""Transport-agnostic serving core: queue -> policy cut -> engine batch.

The :class:`Orchestrator` is the seam between a live stream of
single-transaction requests and the batch engine.  It owns:

* the ingress queue — the *same* :class:`~repro.txn.batch.BatchScheduler`
  the pre-generated benchmark runners drive, so TID assignment, retry
  ordering (original TIDs first — Aria's starvation-freedom argument)
  and pipeline retry delays are identical between served and
  pre-assembled streams;
* one batch-forming loop task that waits on arrivals/policy deadlines
  and cuts batches via the pluggable :class:`~repro.serve.policies
  .BatchPolicy`.  It runs each cut and re-queues its aborts through
  :func:`repro.txn.batch.step`, the step :func:`~repro.txn.batch.drive`
  takes, so a served stream's engine batches are numbered as a driven
  one's are; it waits out whatever of each batch's *simulated* latency
  the host did not already spend running it;
* the requests themselves, which are what callers wait on:
  :meth:`Orchestrator.post` returns the admitted request (a
  :data:`ServeTicket`), and that one object is both the transaction the
  engine runs and an asyncio future-like — ``await`` it, ``gather`` it,
  ``wait_for`` it, hang ``add_done_callback`` on it.  No
  ``asyncio.Future``, ``Handle`` or ``Context`` exists per request.
  A committed / logic-aborted request completes with itself: the
  ticket carries its verdict and the full latency breakdown
  (``done_ns``, ``latency_ns``, ...), and ``await``, ``gather`` and
  ``result()`` return it; concurrency-control aborts re-enter the
  ingress queue transparently (the client just sees a longer wait and
  ``attempts > 1``).  A decided
  batch is delivered by **one** ``loop.call_soon``: the callbacks of all
  its requests run back to back, in decision order, from that single
  loop callback; one that raises is reported to the loop's exception
  handler and the rest still run.  The batch loop yields once after
  every batch, so the delivery — and every request its callbacks post —
  comes before the next cut: a closed-loop caller re-posts into the
  next batch, not the one after it.

Admission control runs synchronously at :meth:`Orchestrator.post` time —
sheds raise typed errors before a request is ever created, so rejected
requests cannot leak resources or deadlock a drain.  Before it, params
that are not ints in int64 range raise the ``TransactionError`` the
batch would, so one bad request never fails the requests cut beside it.

While it runs, the batch-forming loop sizes the collector's young
generation to :data:`YOUNG_BATCHES` batches (:meth:`Orchestrator._batch_loop`).

Where a ticket differs from ``asyncio.Future``, on purpose:

* a callback runs in the ``context=`` it was registered with when one
  was passed (a ``Task``'s wake-up passes its own), otherwise in the
  context of the delivering loop callback — there is no implicit
  ``copy_context()`` per request;
* ``cancel()`` withdraws the *caller*, not the work: the ticket reads
  cancelled and its callbacks run once (via ``call_soon``), but the
  lane stays queued, still executes and still counts in
  ``serve.committed``;
* the ticket is the request row, so holding one holds its params and —
  until its ``ops`` are read — its batch's op frame.

Everything observable — responses, metrics, spans, the recorded batch
compositions — is a deterministic function of the arrival trace on the
virtual clock; ``tests/test_serve_equivalence.py`` leans on that to
replay a served schedule as pre-assembled batches and demand
byte-identical final database state.
"""

from __future__ import annotations

import asyncio
import gc
from array import array
from asyncio import CancelledError, InvalidStateError
from collections.abc import Callable, Generator, Iterable
from contextvars import Context
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Any, cast

import numpy as np

from repro.core.stats import RunStats
from repro.serve.admission import AdmissionController
from repro.serve.clock import SimClock
from repro.serve.errors import BatchExecutionError, IngressClosed
from repro.serve.policies import BatchPolicy, QueueView, SizePolicy
from repro.storage.wal import int64_params
from repro.trace.metrics import LatencyDigest, MetricsRegistry
from repro.txn.batch import BatchScheduler, step
from repro.txn.transaction import Transaction, TxnStatus

#: Tracer track names for the serve layer (virtual-clock timestamps).
SERVE_BATCH_TRACK = "serve.batches"
SERVE_QUEUE_COUNTER = "serve.queue_depth"


_enqueue_of = attrgetter("enqueue_ns")
#: ``_outcome`` of a decided request, whose result is the request itself
#: (not ``self``: a self-reference would leave every ticket to the
#: cyclic collector).
_DECIDED = object()

#: ``searchsorted(_POW2, x, side="right")`` is ``x.bit_length()`` for
#: every positive int64.
_POW2 = 1 << np.arange(63, dtype=np.int64)

#: Twice the largest measured per-batch swing of ``gc.get_count()[0]``, 2.0 x capacity (ycsb_read).
YOUNG_BATCHES = 4


class _Request(Transaction):
    """One admitted request: the transaction the scheduler queues and
    the engine runs, carrying its own serve-side book-keeping — so a
    batch or a result list *is* the list of requests it concerns — and
    the awaitable :meth:`Orchestrator.post` hands back.

    It implements asyncio's future-like protocol (what
    :func:`asyncio.isfuture` tests for) instead of holding a
    ``Future``; the module docstring lists where it differs from one.
    """

    __slots__ = (
        "seq", "tenant", "submit_ns", "enqueue_ns", "_loop", "first_cut_ns",
        "done_ns", "_outcome", "_callback", "_context", "_more",
        "_asyncio_future_blocking",
    )

    def __init__(
        self,
        procedure: str,
        params: tuple,
        seq: int,
        tenant: str,
        now_ns: int,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        Transaction.__init__(self, procedure, params)
        self.seq = seq
        self.tenant = tenant
        #: ``enqueue_ns``: when it (re-)entered the ingress queue — retries
        #: refresh it
        self.submit_ns = self.enqueue_ns = now_ns
        self._loop = loop
        self.first_cut_ns: int | None = None
        #: when its batch was decided (the orchestrator's clock)
        self.done_ns: int | None = None
        #: ``None`` while pending; then :data:`_DECIDED`, the error that
        #: failed its batch, or the ``CancelledError`` :meth:`cancel` made
        self._outcome: object = None
        #: the first done-callback and the context it asked for, and any
        #: further ``(callback, context)`` pairs
        self._callback: Callable[[Any], object] | None = None
        self._context: Context | None = None
        self._more: list[tuple[Callable[[Any], object], Context | None]] | None = None
        #: asyncio's marker for "``yield``-ed from ``__await__``"
        self._asyncio_future_blocking = False

    # a ticket is one request, not a value: ``gather`` keys a dict by it
    __hash__ = object.__hash__
    __eq__ = object.__eq__

    def get_loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def done(self) -> bool:
        return self._outcome is not None

    def cancelled(self) -> bool:
        return isinstance(self._outcome, CancelledError)

    @property
    def queue_wait_ns(self) -> int:
        """Time from submission to joining the *first* batch."""
        return self.first_cut_ns - self.submit_ns  # type: ignore[operator]

    @property
    def service_ns(self) -> int:
        """Time from first batch membership to the final verdict
        (includes retry rounds for rescheduled transactions)."""
        return self.done_ns - self.first_cut_ns  # type: ignore[operator]

    @property
    def latency_ns(self) -> int:
        """End-to-end client latency: queue wait + batch residency."""
        return self.done_ns - self.submit_ns  # type: ignore[operator]

    @property
    def committed(self) -> bool:
        return self.status is TxnStatus.COMMITTED

    def result(self) -> _Request:
        outcome = self._outcome
        if outcome is _DECIDED:
            return self
        if outcome is None:
            raise InvalidStateError("Result is not ready.")
        raise cast(BaseException, outcome)

    def exception(self) -> BaseException | None:
        outcome = self._outcome
        if outcome is None:
            raise InvalidStateError("Exception is not set.")
        if outcome is _DECIDED:
            return None
        if isinstance(outcome, CancelledError):
            raise outcome
        return cast(BaseException, outcome)

    def cancel(self, msg: Any = None) -> bool:
        """Stop waiting: the ticket reads cancelled and its callbacks
        run; the lane itself stays in the queue and still executes."""
        if self._outcome is not None:
            return False
        self._outcome = CancelledError() if msg is None else CancelledError(msg)
        self._loop.call_soon(_deliver, (self,))
        return True

    def add_done_callback(
        self, fn: Callable[[Any], object], *, context: Context | None = None
    ) -> None:
        if self._outcome is not None:
            self._loop.call_soon(fn, self, context=context)
        elif self._callback is None:
            self._callback = fn
            self._context = context
        else:
            if self._more is None:
                self._more = []
            self._more.append((fn, context))

    def remove_done_callback(self, fn: Callable[[Any], object]) -> int:
        if self._outcome is not None or self._callback is None:
            # already handed to a delivery, or nothing registered
            return 0
        pairs = [(self._callback, self._context), *(self._more or ())]
        kept = [pair for pair in pairs if pair[0] != fn]
        self._callback, self._context = kept[0] if kept else (None, None)
        self._more = kept[1:] or None
        return len(pairs) - len(kept)

    def __await__(self) -> Generator[Any, None, _Request]:
        if self._outcome is None:
            self._asyncio_future_blocking = True
            yield self  # the running Task registers its wake-up on us
        if self._outcome is None:
            raise RuntimeError("await wasn't used with future")
        return self.result()

    # asyncio.gather reads these two off a cancelled child
    @property
    def _cancel_message(self) -> Any:
        outcome = self._outcome
        if isinstance(outcome, CancelledError) and outcome.args:
            return outcome.args[0]
        return None

    def _make_cancelled_error(self) -> CancelledError:
        outcome = self._outcome
        return outcome if isinstance(outcome, CancelledError) else CancelledError()


#: What :meth:`Orchestrator.post` returns: an awaitable, future-like
#: handle on one admitted request, completing with itself.
ServeTicket = _Request


def _deliver(requests: Iterable[_Request]) -> None:
    """Run the done-callbacks of ``requests`` (all done), in order.

    The one loop callback a decided batch costs.  A request whose
    callbacks already ran (it was cancelled earlier) has none left.
    """
    for request in requests:
        callback = request._callback
        if callback is None:
            continue
        context, more = request._context, request._more
        request._callback = request._context = request._more = None
        _call(request, callback, context)
        if more is not None:
            for callback, context in more:
                _call(request, callback, context)


def _call(
    request: _Request, callback: Callable[[Any], object], context: Context | None
) -> None:
    """What ``asyncio.Handle._run`` does for one callback: a failure is
    the loop's exception handler's business, not the next callback's."""
    try:
        if context is None:
            callback(request)
        else:
            context.run(callback, request)
    except (SystemExit, KeyboardInterrupt):
        raise
    except BaseException as exc:
        request._loop.call_exception_handler(
            {
                "message": f"Exception in callback {callback!r}",
                "exception": exc,
                "future": request,
            }
        )


@dataclass(slots=True)
class BatchRecord:
    """One cut batch, as the equivalence tests replay it."""

    index: int
    cut_ns: int
    done_ns: int
    #: request seq and tid per member, in batch order
    seqs: array
    tids: array


class Orchestrator:
    """The serving core; see the module docstring for the dataflow."""

    def __init__(
        self,
        engine: Any,
        policy: BatchPolicy | None = None,
        admission: AdmissionController | None = None,
        clock: SimClock | None = None,
    ):
        self.engine = engine
        self.policy = policy or SizePolicy(engine.config.batch_size)
        self.admission = admission or AdmissionController()
        self.clock = clock or SimClock()
        #: per-run observability: always-on registry (cheap plain ints)
        self.metrics = MetricsRegistry()
        self.run_stats = RunStats()
        self.latency = LatencyDigest("serve.latency_ns")
        self.queue_wait = LatencyDigest("serve.queue_wait_ns")
        self.batch_records: list[BatchRecord] = []

        self._scheduler = BatchScheduler(self.policy.capacity)
        #: the scheduler's backlog, less the aborts of the batch in flight
        #: until they re-enter as of its end
        self._depth = 0
        self._next_seq = 0
        self._submitted = self.metrics.counter("serve.submitted")
        #: the loop the batch task runs on, bound by :meth:`start`
        self._loop: asyncio.AbstractEventLoop | None = None
        self._arrival: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Start the batch-forming loop (idempotent; needs a running
        event loop)."""
        if self._task is None:
            self._loop = asyncio.get_running_loop()
            self._arrival = asyncio.Event()
            self._task = self._loop.create_task(
                self._batch_loop(), name="serve-batch-loop"
            )

    async def drain(self) -> None:
        """Close the ingress, flush every queued request (policies cut
        partial batches while draining) and stop the loop task."""
        self._closed = True
        if self._task is None:
            return
        assert self._arrival is not None
        self._arrival.set()
        await self._task
        self._task = None

    async def __aenter__(self) -> "Orchestrator":
        self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.drain()

    # -- ingress -------------------------------------------------------
    def post(
        self, procedure: str, params: tuple, tenant: str = "default"
    ) -> ServeTicket:
        """Admit one request; returns it — the :data:`ServeTicket` that
        completes with itself once decided.

        Raises a typed :class:`~repro.serve.errors.AdmissionRejected`
        subclass synchronously when the request is shed,
        :class:`IngressClosed` after :meth:`drain` began, and, before
        admission, the :class:`~repro.errors.TransactionError` the batch
        would raise for a param that is not an int in int64 range.
        """
        if self._closed:
            raise IngressClosed("ingress is closed; request not admitted")
        params = tuple(params)
        int64_params(params)
        if self._task is None:
            self.start()
        loop = self._loop
        assert loop is not None and self._arrival is not None
        now = self.clock.now_ns(loop)
        try:
            self.admission.admit(tenant, self._depth, now)
        except Exception:
            self.metrics.counter("serve.shed").inc()
            raise
        seq = self._next_seq
        self._next_seq = seq + 1
        request = _Request(procedure, params, seq, tenant, now, loop)
        self._scheduler.admit((request,))
        self._depth += 1
        self._submitted.value += 1
        self._arrival.set()
        return request

    async def submit(
        self, procedure: str, params: tuple, tenant: str = "default"
    ) -> ServeTicket:
        """Admit one request and await its verdict (closed-loop API)."""
        return await self.post(procedure, params, tenant)

    # -- introspection -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted (or awaiting retry) but not yet batched."""
        return self._depth

    def _view(self, draining: bool) -> QueueView:
        eligible = min(
            self._scheduler.eligible_backlog, self.policy.capacity
        )
        # The oldest queued request heads one of the scheduler's queues:
        # fresh arrivals queue in post() order on the monotone clock, and
        # one batch's aborts re-enter together, stamped alike.
        oldest = min(map(_enqueue_of, self._scheduler.heads()), default=None)
        return QueueView(
            eligible=eligible,
            oldest_enqueue_ns=oldest,
            now_ns=self.clock.now_ns(),
            draining=draining,
        )

    # -- the batch-forming loop ----------------------------------------
    async def _batch_loop(self) -> None:
        """Cut and run batches until drained, delivering each decided
        batch before the next cut.

        Meanwhile the collector's generation-0 threshold is at least
        :data:`YOUNG_BATCHES` batches, so it stops walking the requests
        in flight.  The threshold is process-wide: the loop puts it back
        at the end only if it still reads the loop's value, so of two
        orchestrators that stop out of order one serves on without the
        raise, or it outlives both (speed only, never outcomes).
        """
        assert self._arrival is not None
        before, *older = gc.get_threshold()
        young = max(before, YOUNG_BATCHES * self.policy.capacity)
        gc.set_threshold(young, *older)
        try:
            while True:
                if not await self._wait_for_cut():
                    return
                await self._run_one_batch()
                await asyncio.sleep(0)  # the delivery, before the next cut
        finally:
            held, *older = gc.get_threshold()
            if held == young != before:
                gc.set_threshold(before, *older)

    async def _wait_for_cut(self) -> bool:
        """Block until a batch should be cut; False = drained, stop."""
        assert self._arrival is not None
        while True:
            if (
                self._scheduler.eligible_backlog == 0
                and self._scheduler.backlog > 0
            ):
                # Only pipeline-delayed retries remain: cut (a possibly
                # empty batch) to advance the batch index they are
                # waiting on, as drive's empty cuts do.
                return True
            view = self._view(draining=self._closed)
            if view.eligible > 0 and self.policy.should_cut(view):
                return True
            if self._closed and self._scheduler.backlog == 0:
                return False
            deadline = (
                self.policy.next_deadline_ns(view)
                if view.eligible > 0
                else None
            )
            self._arrival.clear()
            if deadline is None:
                await self._arrival.wait()
            elif deadline <= view.now_ns:
                # numeric guard: a deadline that just passed must cut on
                # the re-check, not busy-wait
                await asyncio.sleep(0)
            else:
                try:
                    await asyncio.wait_for(
                        self._arrival.wait(),
                        timeout=(deadline - view.now_ns) * 1e-9,
                    )
                except asyncio.TimeoutError:
                    pass

    async def _run_one_batch(self) -> None:
        cut_ns = self.clock.now_ns()
        # every transaction the scheduler holds is a _Request of ours
        batch = cast("list[_Request]", self._scheduler.next_batch())
        self._depth -= len(batch)
        record = BatchRecord(len(self.batch_records), cut_ns, cut_ns, array("q"), array("q"))
        add_seq, add_tid = record.seqs.append, record.tids.append
        for request in batch:
            if request.first_cut_ns is None:
                request.first_cut_ns = cut_ns
            add_seq(request.seq)
            add_tid(request.tid)
        self.batch_records.append(record)
        self.metrics.counter("serve.batches").inc()
        self.metrics.histogram("serve.batch_size").observe(len(batch))
        self.metrics.gauge("serve.queue_depth").set(self._depth)
        try:
            result = step(self.engine, self._scheduler, batch)
        except Exception as exc:
            self._fail_batch(record, batch, exc)
            return
        if result is None:
            return  # an empty cut only advanced the scheduler
        # The device "runs" the batch for its simulated latency, of which
        # the host already spent what step took; fresh arrivals keep
        # queueing meanwhile.
        await self.clock.sleep_ns(
            round(result.stats.latency_ns) - (self.clock.now_ns() - cut_ns)
        )
        done_ns = self.clock.now_ns()
        record.done_ns = done_ns
        self.run_stats.add(result.stats)

        # step re-queued the aborts with the scheduler; they rejoin the
        # ingress queue as of the batch's end
        for request in result.aborted:
            request.enqueue_ns = done_ns
        self._depth += len(result.aborted)
        self._resolve(result.committed, result.logic_aborted, done_ns)
        for name, group in (
            ("serve.retries", result.aborted),
            ("serve.committed", result.committed),
            ("serve.logic_aborted", result.logic_aborted),
        ):
            if group:
                self.metrics.counter(name).inc(len(group))

        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None:
            tracer.async_span(
                f"serve.batch[{record.index}]",
                id=record.index,
                start_ns=float(cut_ns),
                end_ns=float(done_ns),
                track=SERVE_BATCH_TRACK,
                cat="serve",
                args={
                    "size": len(batch),
                    "committed": result.stats.committed,
                    "aborted": result.stats.aborted,
                },
            )
            tracer.counter(
                SERVE_QUEUE_COUNTER, float(done_ns), depth=self._depth
            )

    def _resolve(
        self,
        committed: list[_Request],
        logic_aborted: list[_Request],
        done_ns: int,
    ) -> None:
        """Stamp every decided request of one batch with its verdict's
        time, book the batch's latencies in one go, and schedule the
        batch's one delivery."""
        latencies: list[int] = []
        waits: list[int] = []
        add_latency, add_wait = latencies.append, waits.append
        for request in chain(committed, logic_aborted):
            submit_ns = request.submit_ns
            add_latency(done_ns - submit_ns)
            add_wait(request.first_cut_ns - submit_ns)  # type: ignore[operator]
            request.done_ns = done_ns
            if request._outcome is None:  # else: cancelled while queued
                request._outcome = _DECIDED
        if not latencies:
            return
        assert self._loop is not None
        self._loop.call_soon(_deliver, chain(committed, logic_aborted))
        self.latency.extend(latencies)
        self.queue_wait.extend(waits)
        # bucket = 1 << max(latency_us, 1).bit_length()
        micros = np.maximum(np.asarray(latencies, dtype=np.int64) // 1000, 1)
        bits = np.bincount(np.searchsorted(_POW2, micros, side="right"))
        histogram = self.metrics.histogram("serve.latency_us_pow2")
        for nbits in np.flatnonzero(bits).tolist():
            histogram.observe(1 << nbits, int(bits[nbits]))

    def _fail_batch(
        self, record: BatchRecord, batch: list[_Request], exc: Exception
    ) -> None:
        """Engine blew up mid-batch: fail exactly this batch's requests
        (cause preserved) and keep the ingress loop alive."""
        self.metrics.counter("serve.batch_failures").inc()
        error = BatchExecutionError(record.index, exc)
        for request in batch:
            if request._outcome is None:
                request._outcome = error
        assert self._loop is not None
        self._loop.call_soon(_deliver, batch)
