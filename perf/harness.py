"""Closed-loop load driver for ``repro.serve.Orchestrator``.

``clients`` callers each ``post()`` one pre-generated request and post
the next from the response future's done-callback (zero think time).
Everything runs on the one thread of a real asyncio loop.

Completions arrive in *bursts*: the orchestrator resolves a whole
batch's futures at once, and their callbacks run back to back.  The
driver only changes state at the first callback of a burst, so warm-up,
each measured window and the stop all fall on batch boundaries and a
window always covers a whole number of batch cycles.

Time is read from the run's :class:`hostclock.HostClock`, which leaves
out what the driver spends on its own account: the host-speed samples it
takes at burst boundaries, and generating more requests.  The only
planned generation is the top-up between warm-up and the first window,
sized from the completion rate seen in warm-up; while the single thread
generates, the program cannot run, so leaving the pause out of every
reading is exact.  A window that still runs out of requests refills the
same way and counts it in ``refills``.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple

from hostclock import HostClock
from workloads import request_chunks

#: Requests kept ready beyond the estimate for the coming windows.
_HEADROOM = 1.2


class Mark(NamedTuple):
    """Counters at one burst boundary inside a window."""

    t: float        # HostClock.now(), s
    committed: int  # serve.committed
    retries: int    # serve.retries
    stats: int      # len(orch.run_stats.batches)
    samples: int    # latency samples taken so far in this window
    rss_kb: int     # ru_maxrss


@dataclass
class Window:
    seconds: float
    traced: bool
    marks: list[Mark] = field(default_factory=list)
    #: one entry per completion inside the window: HostClock.now() at its
    #: post() and at its done-callback
    posted_at: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.marks[-1].t - self.marks[0].t

    @property
    def cycles(self) -> int:
        return len(self.marks) - 1


class ClosedLoop:
    """Drives one run: warm-up, then each window in turn, then stop.

    ``observer`` (optional) is told when a traced window opens and
    closes and at every burst boundary inside it; it never influences
    what the driver posts."""

    def __init__(
        self,
        orch: Any,
        generator: Any,
        pool: list[tuple[str, tuple]],
        clients: int,
        warmup: int,
        windows: list[Window],
        host: HostClock,
        observer: Any = None,
    ):
        self.orch = orch
        self.generator = generator
        self.pool = pool
        self.clients = clients
        self.warmup = warmup
        self.windows = windows
        self.host = host
        self.observer = observer
        self.span = None  # set by the observer while a traced window is open

        self.posted = 0
        self.shed = 0
        self.failed = 0
        self.completed = 0
        self.committed = 0
        self.logic_aborted = 0
        self.attempts = 0
        self.refills = 0
        self.generated_s = 0.0
        self.top_up_s = 0.0  # the part of generated_s before the first window
        self.window_opened_at: float | None = None  # HostClock.now()
        self.warmup_rate = 0.0

        self._next = 0
        self._batches_seen = -1
        self._current = -1  # index into windows; -1 = warm-up
        self._sample: Window | None = None
        self._stopped = False
        self._finished: asyncio.Future | None = None
        self._last_boundary = (0.0, 0)
        metrics = orch.metrics
        self._c_committed = metrics.counter("serve.committed")
        self._c_retries = metrics.counter("serve.retries")

    # -- request pool --------------------------------------------------
    def _generate(self, count: int) -> None:
        """Extend the pool by at least ``count`` requests, off the clock."""
        t0 = time.perf_counter()
        self.pool.extend(request_chunks(self.generator, count))
        gc.collect()
        gc.freeze()
        spent = time.perf_counter() - t0
        self.host.leave_out(spent)
        self.generated_s += spent

    def _post_next(self) -> None:
        i = self._next
        if i >= len(self.pool):
            self.refills += 1
            self._generate(1)
        procedure, params = self.pool[i]
        self._next = i + 1
        self.posted += 1
        t_post = self.host.now()
        try:
            future = self.orch.post(procedure, params)
        except Exception:  # typed shed (AdmissionRejected) or closed ingress
            self.shed += 1
            return
        future.add_done_callback(partial(self._on_done, t_post))

    # -- completions ---------------------------------------------------
    def _on_done(self, t_post: float, future: asyncio.Future) -> None:
        if len(self.orch.batch_records) != self._batches_seen:
            self._batches_seen = len(self.orch.batch_records)
            self._boundary()
        span = self.span
        if span is not None:
            t_span = span.enter()
        if future.cancelled() or future.exception() is not None:
            self.failed += 1
        else:
            response = future.result()
            self.completed += 1
            self.attempts += response.attempts
            if response.committed:
                self.committed += 1
            else:
                self.logic_aborted += 1
            window = self._sample
            if window is not None:
                window.posted_at.append(t_post)
                window.done_at.append(self.host.now())
        if not self._stopped:
            self._post_next()
        if span is not None:
            span.exit(t_span)

    def _mark(self, window: Window) -> Mark:
        return Mark(
            t=self.host.now(),
            committed=self._c_committed.value,
            retries=self._c_retries.value,
            stats=len(self.orch.run_stats.batches),
            samples=len(window.done_at),
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )

    def _boundary(self) -> None:
        """First callback of a burst: advance warm-up -> windows -> stop."""
        if self._stopped:
            return
        self.host.tick()
        if self._current < 0:
            if self.completed < self.warmup:
                self._last_boundary = (self.host.now(), self.completed)
                return
            self._top_up()
            self._open(0)
            return
        window = self.windows[self._current]
        mark = self._mark(window)
        window.marks.append(mark)
        if window.traced and self.observer is not None:
            self.observer.burst()
        if mark.t - window.marks[0].t < window.seconds:
            return
        self._sample = None
        if window.traced and self.observer is not None:
            self.observer.close_window(self)
        if self._current + 1 < len(self.windows):
            self._open(self._current + 1)
        else:
            self._stopped = True
            assert self._finished is not None
            self._finished.set_result(None)

    def _top_up(self) -> None:
        """Generate what the windows will need, from the warm-up rate."""
        # the last warm-up cycle is the best guide to what follows: the
        # first ones include the initial burst of posts
        t_last, completed_last = self._last_boundary
        elapsed = self.host.now() - t_last
        done = self.completed - completed_last
        self.warmup_rate = done / elapsed if elapsed > 0 else 0.0
        # A slow spell of the host may end as the window opens, and the
        # pool's size shows in peak_rss_mb: size it for full speed.
        speed = self.host.speed(t_last, t_last + elapsed)
        rate = self.warmup_rate / min(1.0, speed)
        budget = sum(w.seconds for w in self.windows)
        # a window ends on the first boundary past its seconds, so allow
        # one more batch cycle per window
        per_cycle = min(self.clients, self.orch.policy.capacity)
        need = rate * budget * _HEADROOM + per_cycle * len(self.windows)
        ready = len(self.pool) - self._next
        self._generate(max(0, int(need) - ready))
        self.top_up_s = self.generated_s
        self.host.sample()

    def _open(self, index: int) -> None:
        window = self.windows[index]
        self._current = index
        if window.traced and self.observer is not None:
            self.observer.open_window(self)
        window.marks.append(self._mark(window))
        if index == 0:
            self.window_opened_at = window.marks[0].t
        self._sample = window

    # -- the run -------------------------------------------------------
    async def run(self, timeout_s: float, drain_timeout_s: float) -> None:
        """Serve until the last window closes, then drain."""
        self._finished = asyncio.get_running_loop().create_future()
        self._last_boundary = (self.host.now(), 0)
        for _ in range(self.clients):
            self._post_next()
        try:
            await asyncio.wait_for(self._finished, timeout=timeout_s)
        finally:
            self._stopped = True
            self._sample = None
            if self.observer is not None:
                self.observer.close_window(self)
        await asyncio.wait_for(self.orch.drain(), timeout=drain_timeout_s)

    @property
    def unresolved(self) -> int:
        return self.posted - self.shed - self.failed - self.completed
