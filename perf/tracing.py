"""Run-time tracing of the program's public callables, from outside.

Nothing under ``src/`` is edited: while a traced window is open, each
hook below is resolved by dotted path and replaced on its owner by a
timing wrapper; the originals are put back when the window closes.  A
hook that no longer resolves is listed in ``missing`` and its metrics
read ``None`` instead of the benchmark crashing.

Spans nest through one stack, so a hook's *self* time is its total
minus the time of hooks called inside it.  Per-batch hooks record one
span per call; per-request hooks record one aggregate span (calls +
busy ns) per batch cycle.  Spans stay in memory and are written once,
as Chrome ``trace_event`` JSON, after the run.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from typing import Any, Callable

_now = time.perf_counter_ns

#: metric stem -> (layer, per-request?, dotted paths timed under that stem)
HOOKS: dict[str, tuple[str, bool, tuple[str, ...]]] = {
    "serve.post": ("serve", True, ("repro.serve.Orchestrator.post",)),
    "serve.admission.admit": (
        "serve", True, ("repro.serve.AdmissionController.admit",),
    ),
    "serve.policy.should_cut": (
        "serve", False,
        (
            "repro.serve.SizePolicy.should_cut",
            "repro.serve.DeadlinePolicy.should_cut",
        ),
    ),
    "txn.scheduler.admit": ("txn", True, ("repro.txn.BatchScheduler.admit",)),
    "txn.scheduler.next_batch": (
        "txn", False, ("repro.txn.BatchScheduler.next_batch",),
    ),
    "txn.scheduler.requeue_aborted": (
        "txn", False, ("repro.txn.BatchScheduler.requeue_aborted",),
    ),
    "core.run_batch": ("core", False, ("repro.core.LTPGEngine.run_batch",)),
    "core.conflict_log.register": (
        "core", False,
        (
            "repro.core.ConflictLog.register_reads",
            "repro.core.ConflictLog.register_writes",
            "repro.core.ConflictLog.register_inserts",
        ),
    ),
    "core.conflict_log.lookup": (
        "core", False,
        (
            "repro.core.ConflictLog.min_read",
            "repro.core.ConflictLog.min_write",
            "repro.core.ConflictLog.insert_winners",
        ),
    ),
    "core.conflict_log.begin_end": (
        "core", False,
        (
            "repro.core.ConflictLog.begin_batch",
            "repro.core.ConflictLog.end_batch",
        ),
    ),
    "core.delayed_update.apply": (
        "core", False,
        (
            "repro.core.DelayedUpdater.apply",
            "repro.core.DelayedUpdater.apply_arrays",
        ),
    ),
    "storage.log.append_batch": (
        "storage", False, ("repro.storage.BatchLog.append_batch",),
    ),
    "storage.log.record_outcome": (
        "storage", False, ("repro.storage.BatchLog.record_outcome",),
    ),
    "storage.table.append_keys": (
        "storage", False, ("repro.storage.Table.append_keys",),
    ),
    "storage.index.bulk_insert": (
        "storage", False, ("repro.storage.PrimaryIndex.bulk_insert",),
    ),
}

#: The engine's own per-phase host timers, read after each ``run_batch``.
PHASE_ATTR = "last_host_phase_s"
PHASES = ("execute", "conflict", "writeback", "assemble")

DRIVER = "driver"


def resolve(path: str) -> tuple[Any, str, Callable] | None:
    """``(owner, attribute, callable)`` for a dotted path, or ``None``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = None
        for name in parts[cut:]:
            owner, obj = obj, getattr(obj, name, None)
            if obj is None:
                return None
        return (owner, parts[-1], obj) if callable(obj) else None
    return None


def _live_rows(engine: Any) -> int:
    return sum(len(table) for table in engine.database.tables)


class Agg:
    """Running totals for one metric stem."""

    __slots__ = (
        "name", "layer", "per_request", "calls", "total", "child",
        "cyc_calls", "cyc_busy", "cyc_first", "cyc_last",
    )

    def __init__(self, name: str, layer: str, per_request: bool):
        self.name = name
        self.layer = layer
        self.per_request = per_request
        self.calls = 0
        self.total = 0  # ns, children included
        self.child = 0  # ns spent in hooks called from inside
        self.cyc_calls = 0
        self.cyc_busy = 0
        self.cyc_first = 0
        self.cyc_last = 0

    @property
    def self_ns(self) -> int:
        return self.total - self.child


class Span:
    """enter()/exit() pair bound to one :class:`Agg` and the tracer."""

    __slots__ = ("agg", "tracer")

    def __init__(self, agg: Agg, tracer: "Tracer"):
        self.agg = agg
        self.tracer = tracer

    def enter(self) -> int:
        self.tracer.stack.append(self.agg)
        return _now()

    def exit(self, t0: int) -> None:
        t1 = _now()
        tracer, agg = self.tracer, self.agg
        stack = tracer.stack
        stack.pop()
        spent = t1 - t0
        agg.calls += 1
        agg.total += spent
        parent = None
        if stack:
            parent = stack[-1]
            parent.child += spent
        if agg.per_request:
            if agg.cyc_calls == 0:
                agg.cyc_first = t0
            agg.cyc_calls += 1
            agg.cyc_busy += spent
            agg.cyc_last = t1
        else:
            tracer.spans.append(
                (agg.name, agg.layer, t0, t1,
                 parent.name if parent else "", tracer.cycle, 1, spent)
            )


class Tracer:
    """Installs the hooks for the span of one traced window."""

    def __init__(self) -> None:
        self.aggs: dict[str, Agg] = {
            stem: Agg(stem, layer, per_request)
            for stem, (layer, per_request, _) in HOOKS.items()
        }
        self.aggs[DRIVER] = Agg(DRIVER, "driver", True)
        self.phases: dict[str, float] = {p: 0.0 for p in PHASES}
        self.phase_batches = 0
        self.missing: list[str] = []
        #: (name, layer, t0_ns, t1_ns, parent, batch index, calls, busy_ns)
        self.spans: list[tuple] = []
        self.stack: list[Agg] = []
        self.cycle = 0
        self.t_open = 0
        self.rows_inserted = 0
        self.gc_ns = 0  # inside the cyclic collector, whatever it interrupted
        self._gc_start = 0
        self._append_end = 0
        self._undo: list[tuple[Any, str, Callable]] = []
        self._orch: Any = None

    # -- wrapping ------------------------------------------------------
    def _wrap(self, stem: str, fn: Callable) -> Callable:
        span = Span(self.aggs[stem], self)
        enter, leave = span.enter, span.exit
        if stem == "core.run_batch":
            def with_phases(engine: Any, transactions: Any) -> Any:
                # the orchestrator records a batch before running it
                self.cycle = len(self._orch.batch_records) - 1
                t0 = enter()
                try:
                    result = fn(engine, transactions)
                finally:
                    leave(t0)
                if transactions:  # an empty batch leaves the timers stale
                    self._read_phases(engine, t0)
                return result
            return with_phases
        if stem == "storage.log.append_batch":
            def before_phases(*args: Any, **kwargs: Any) -> Any:
                t0 = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(t0)
                    self._append_end = _now()
            return before_phases

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(t0)
        return timed

    def _read_phases(self, engine: Any, t0: int) -> None:
        phases = getattr(engine, PHASE_ATTR, None)
        if not phases:  # the attribute is gone
            return
        self.phase_batches += 1
        # The engine reports durations only.  The phases are consecutive
        # and follow the batch-log append, so that is where they are
        # drawn — on a row of their own, since the placement is inferred.
        at = max(t0, self._append_end)
        for phase in PHASES:
            seconds = phases.get(phase)
            if seconds is None:
                continue
            self.phases[phase] += seconds
            ns = int(seconds * 1e9)
            self.spans.append(
                (f"core.{phase}", "core.phases", at, at + ns,
                 "core.run_batch", self.cycle, 1, ns)
            )
            at += ns

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            self.gc_ns += _now() - self._gc_start

    # -- window lifecycle (the ClosedLoop observer protocol) -----------
    def open_window(self, loop: Any) -> None:
        self._orch = loop.orch
        self.cycle = len(loop.orch.batch_records)
        for stem, (_layer, _per_request, paths) in HOOKS.items():
            for path in paths:
                found = resolve(path)
                if found is None:
                    self.missing.append(path)
                    continue
                owner, attr, fn = found
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(stem, fn))
        if not hasattr(loop.orch.engine, PHASE_ATTR):
            self.missing.append(f"repro.core.LTPGEngine.{PHASE_ATTR}")
        self.rows_inserted = -_live_rows(loop.orch.engine)
        loop.span = Span(self.aggs[DRIVER], self)
        gc.callbacks.append(self._on_gc)
        self.t_open = _now()

    def burst(self) -> None:
        """A batch cycle ended: flush the per-request aggregates."""
        for agg in self.aggs.values():
            if agg.cyc_calls:
                self.spans.append(
                    (agg.name, agg.layer, agg.cyc_first, agg.cyc_last, "",
                     self.cycle, agg.cyc_calls, agg.cyc_busy)
                )
                agg.cyc_calls = agg.cyc_busy = 0
        if self._orch is not None:
            self.cycle = len(self._orch.batch_records)

    def close_window(self, loop: Any) -> None:
        if not self._undo and loop.span is None:
            return
        gc.callbacks.remove(self._on_gc)
        self.rows_inserted += _live_rows(loop.orch.engine)
        loop.span = None
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        self.burst()

    # -- results -------------------------------------------------------
    def missing_stems(self) -> set[str]:
        """Stems with at least one unresolved path."""
        gone = set(self.missing)
        return {
            stem for stem, (_l, _p, paths) in HOOKS.items()
            if any(p in gone for p in paths)
        }

    def write_chrome(self, path: str, meta: dict[str, Any]) -> None:
        """Chrome ``trace_event`` JSON; open in Perfetto or about:tracing."""
        layers = sorted({s[1] for s in self.spans})
        tid = {layer: i + 1 for i, layer in enumerate(layers)}
        events: list[dict[str, Any]] = [
            {"ph": "M", "pid": 1, "tid": tid[layer], "name": "thread_name",
             "args": {"name": f"repro.{layer}" if layer != "driver" else layer}}
            for layer in layers
        ]
        for name, layer, t0, t1, parent, batch, calls, busy in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": tid[layer], "name": name,
                "cat": layer,
                "ts": (t0 - self.t_open) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "args": {"batch": batch, "parent": parent, "calls": calls,
                         "busy_us": busy / 1e3},
            })
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "metadata": meta},
                fh,
            )
