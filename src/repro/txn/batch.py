"""Batch formation, abort re-scheduling, and the loop that drives both.

The scheduler admits client transactions, forms fixed-size batches,
assigns TIDs on first admission (kept across re-executions), and
re-queues concurrency-control aborts ``delay`` batches later:

* normally into the *next* batch,
* under the batch-to-batch pipeline (paper §V-E) into the batch *two*
  slots later, because batch *n+1*'s inputs are already in flight to the
  GPU while batch *n* executes.

The delay is the engine's: :func:`step` passes ``engine.retry_delay``,
which an :class:`~repro.core.engine.LTPGEngine` takes from its config
(two when ``pipelined``) and a baseline fixes at one, so no driver
chooses it.

Aborted transactions carry their original (smaller) TIDs, so on retry
they outrank the newer transactions in conflict detection — the
starvation-freedom argument the paper inherits from Aria.

:func:`step` runs one cut batch and re-queues what it aborted; it is
the only place a scheduled batch meets the engine.  :func:`drive` is
the admit -> cut -> :func:`step` loop over a scheduler and an engine,
and the async serve loop cuts on its own clock but runs every cut
through :func:`step` too, so both number their batches alike.  Only the
recovery replay runs batches otherwise (it re-queues nothing).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from operator import attrgetter

from repro.errors import TransactionError
from repro.txn.transaction import Transaction, TxnStatus, assign_tids

_tid_of = attrgetter("tid")


class BatchScheduler:
    """Forms batches from new arrivals plus retry traffic."""

    def __init__(self, batch_size: int):
        if batch_size <= 0:
            raise TransactionError("batch size must be positive")
        self.batch_size = batch_size
        #: fresh arrivals, oldest first
        self._pending: list[Transaction] = []
        #: retries that are eligible now, in TID order
        self._retries: list[Transaction] = []
        #: batch_index -> retries that become eligible at that index
        self._delayed: dict[int, list[Transaction]] = {}
        self._next_tid = 0
        self.batch_index = 0
        #: host seconds of the last cut and re-queue (engine stage clock)
        self.host_s = {"cut": 0.0, "requeue": 0.0}

    # -- intake -----------------------------------------------------------
    def admit(self, transactions) -> None:
        """Queue newly arrived transactions."""
        self._pending.extend(transactions)

    def requeue_aborted(self, transactions, delay: int = 1) -> None:
        """Schedule concurrency-control aborts for re-execution
        ``delay`` batches later.

        Called after the failing batch ran, i.e. ``batch_index`` has
        already advanced past it; a delay of one means "the very next
        batch formed from now".
        """
        start = time.perf_counter()
        if delay < 1:
            raise TransactionError("retry delay must be at least one batch")
        lanes = list(transactions)
        # every lane is checked before any is queued
        if min(map(_tid_of, lanes), default=0) < 0:
            raise TransactionError("aborted transaction was never admitted")
        if lanes:
            self._delayed.setdefault(self.batch_index + delay - 1, []).extend(lanes)
        self.host_s["requeue"] = time.perf_counter() - start

    # -- batch formation ------------------------------------------------------
    def next_batch(self) -> list[Transaction]:
        """Form the next batch: eligible retries first (TID order), then
        new arrivals, up to ``batch_size``.  Assigns fresh TIDs to the
        new arrivals and advances the batch index.

        The one walk over the lanes stamps the new arrivals' TIDs:
        retries merge by a sort on TID (``step`` re-queues them in TID
        order, so it merges sorted runs), and both queues are sliced."""
        start = time.perf_counter()
        retries = self._retries
        eligible = self._delayed.pop(self.batch_index, None)
        if eligible:
            retries += eligible
            retries.sort(key=_tid_of)
        batch = retries[: self.batch_size]
        del retries[: self.batch_size]
        room = self.batch_size - len(batch)
        fresh = self._pending[:room]
        del self._pending[:room]
        self._next_tid = assign_tids(fresh, self._next_tid)
        batch += fresh
        self.batch_index += 1
        self.host_s["cut"] = time.perf_counter() - start
        return batch

    # -- introspection -----------------------------------------------------
    def heads(self) -> list[Transaction]:
        """The first fresh arrival, every eligible retry and the first
        lane of each delayed re-queue: whichever joined first is here."""
        heads = self._pending[:1] + self._retries
        heads += [lanes[0] for lanes in self._delayed.values()]
        return heads

    @property
    def backlog(self) -> int:
        """Transactions admitted or retried but not yet batched."""
        delayed = sum(len(v) for v in self._delayed.values())
        return len(self._pending) + len(self._retries) + delayed

    @property
    def eligible_backlog(self) -> int:
        """Transactions that can join the *next* batch — excludes
        retries still serving their pipeline delay.  Steady-state
        drivers use this to decide how much fresh load to admit."""
        return (
            len(self._pending)
            + len(self._retries)
            + len(self._delayed.get(self.batch_index, ()))
        )

    def has_work(self) -> bool:
        return self.backlog > 0


def step(engine, scheduler: BatchScheduler, batch: list[Transaction]):
    """Run ``batch`` — just cut from ``scheduler`` — on ``engine`` and
    re-queue every lane it left ``ABORTED``, ``engine.retry_delay``
    batches later; returns what
    ``engine.run_batch`` returned, or ``None`` for an empty cut, which
    runs nothing (the cut already advanced the scheduler: an idle
    device slot).

    The verdicts are read off :attr:`Transaction.status`, so an
    :class:`~repro.core.engine.LTPGEngine` and a
    :class:`~repro.baselines.base.BaselineEngine` are driven by the
    same code.  If ``run_batch`` raises, nothing is re-queued and the
    caller, who cut the batch, still holds it.
    """
    if not batch:
        return None
    # looked up per call, never cached: tracers patch both on the class
    result = engine.run_batch(batch)
    scheduler.requeue_aborted(
        [txn for txn in batch if txn.status is TxnStatus.ABORTED],
        engine.retry_delay,
    )
    return result


def drive(
    engine,
    scheduler: BatchScheduler,
    fresh: Callable[[int], list[Transaction]] | None = None,
    max_batches: int | None = None,
) -> Iterator:
    """Cut batches from ``scheduler`` and :func:`step` each, yielding
    what ``engine.run_batch`` returned for every batch that ran.

    ``fresh(n)``, when given, supplies the ``n`` new transactions the
    next batch is short of full (the steady state of the paper's
    back-to-back runs: every batch full, retries merged with fresh
    load); such a stream never runs dry, so bound it with
    ``max_batches`` or stop consuming.  Without it the loop ends when
    the scheduler has no work left.  ``max_batches`` counts cuts, empty
    ones included.
    """
    cuts = 0
    while max_batches is None or cuts < max_batches:
        if fresh is not None:
            shortfall = scheduler.batch_size - scheduler.eligible_backlog
            if shortfall > 0:
                scheduler.admit(fresh(shortfall))
        elif not scheduler.has_work():
            return
        cuts += 1
        result = step(engine, scheduler, scheduler.next_batch())
        if result is not None:
            yield result
