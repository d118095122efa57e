"""Virtual-time asyncio: deterministic simulated clocks for the ingress.

The serving layer is a *simulation*, like everything else in this repo:
client arrival times and batch deadlines live on a virtual clock, and
engine execution advances it by the batch's *simulated* latency
(``BatchStats.latency_ns``), never by host time.  Two pieces make that
work with stock asyncio:

* :class:`VirtualTimeLoop` — a selector event loop whose ``time()`` is a
  virtual value that *jumps* to the earliest scheduled callback whenever
  the ready queue is empty.  No wall-clock sleeping ever happens: a
  10-second simulated run finishes in milliseconds, and every timestamp
  is a deterministic function of the scheduled work (asyncio breaks
  timer ties by insertion order, which is itself deterministic).
* :class:`SimClock` — the nanosecond-resolution facade the orchestrator
  and clients use (``now_ns`` / ``sleep_ns``).  Tests inject it (or run
  under :func:`run_simulation`) so every policy decision is
  byte-reproducible; the same code runs unchanged on a real-time loop if
  one ever fronts actual network transports.

Because virtual time only advances through the timer heap, a simulation
in which every task waits on a future that no timer or callback will
ever resolve cannot make progress; the loop raises
:class:`~repro.serve.errors.VirtualTimeDeadlock` instead of hanging,
which is what turns "the ingress loop deadlocked" from a CI timeout
into an assertable failure.  (Consequence: real I/O, threads and
executors are out of scope by design — the simulation must be closed.)
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
from typing import Any, Coroutine, TypeVar

from repro.serve.errors import VirtualTimeDeadlock

_T = TypeVar("_T")

#: One virtual nanosecond, in loop-time seconds.
NS = 1e-9


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An asyncio event loop running on simulated time.

    ``time()`` returns the virtual clock; ``_run_once`` advances it to
    the earliest scheduled timer whenever nothing is immediately ready,
    so ``asyncio.sleep``/``wait_for`` complete instantly in wall-clock
    terms while preserving their exact timing semantics.
    """

    def __init__(self) -> None:
        super().__init__(selectors.SelectSelector())
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def _run_once(self) -> None:
        # Strip cancelled timers so the jump target is a live callback
        # (the base loop would discard them anyway; jumping to one would
        # only advance the clock spuriously).
        scheduled = self._scheduled
        while scheduled and scheduled[0]._cancelled:
            handle = heapq.heappop(scheduled)
            handle._scheduled = False
        if not self._ready:
            if scheduled:
                when = scheduled[0]._when
                if when > self._virtual_now:
                    self._virtual_now = when
            elif not self._stopping:
                raise VirtualTimeDeadlock(
                    "virtual time cannot advance: no ready callbacks and "
                    "no scheduled timers, but the loop was asked to keep "
                    "running — some task is awaiting a future nothing "
                    "will ever resolve"
                )
        super()._run_once()


class SimClock:
    """Nanosecond clock facade over the *running* event loop.

    Integer nanoseconds everywhere: policies and admission arithmetic
    stay exact, and ``round()`` of the loop's float seconds is stable
    for any timestamp below ~2^53 ns (≈104 days of simulated time)."""

    def now_ns(self, loop: asyncio.AbstractEventLoop | None = None) -> int:
        """Now, on ``loop`` (the running loop if ``None``)."""
        return round((loop or asyncio.get_running_loop()).time() / NS)

    async def sleep_ns(self, delay_ns: int | float) -> None:
        if delay_ns > 0:
            await asyncio.sleep(delay_ns * NS)
        else:
            await asyncio.sleep(0)


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    """`asyncio.run`-style teardown: cancel leftovers and let them
    observe the cancellation before the loop closes."""
    tasks = asyncio.all_tasks(loop)
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))


def run_simulation(
    main: Coroutine[Any, Any, _T], *, debug: bool | None = None
) -> _T:
    """Run ``main`` to completion on a fresh :class:`VirtualTimeLoop`.

    The drop-in analog of :func:`asyncio.run` for simulated time; the
    loop starts at ``t=0`` so back-to-back simulations produce
    bit-identical timestamps.  ``debug`` forwards to ``set_debug``
    (``None`` keeps asyncio's default, which honors
    ``PYTHONASYNCIODEBUG`` — the CI serve job runs the suite both ways).
    """
    loop = VirtualTimeLoop()
    if debug is not None:
        loop.set_debug(debug)
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
