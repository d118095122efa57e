"""Turn window records into the named metrics of ``BENCHMARK.json``.

End-to-end metrics come from an untraced window and depend on no hook.
Per-layer metrics come from the traced window (hooks, ``BatchStats``)
plus the plain windows either side of it in the same run (drift,
tracing overhead).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Sequence

import numpy as np

from harness import Window
from hostclock import HostClock
from tracing import DRIVER, PHASES, Tracer

Metric = dict[str, Any]  # {"value": number | None, "unit": str}

SEGMENTS = 5


def _m(value: float | None, unit: str) -> Metric:
    return {"value": value, "unit": unit}


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = math.ceil(p / 100 * len(ordered)) - 1
    return float(ordered[max(0, min(len(ordered) - 1, rank))])


def seconds(clock: HostClock | None, readings: Sequence[float]) -> np.ndarray:
    """Clock readings as host seconds, or as they are (the wall clock)
    when ``clock`` is ``None``."""
    if clock is None:
        return np.asarray(readings, dtype=float)
    return clock.host_seconds(readings)


def mark_times(window: Window, clock: HostClock | None) -> np.ndarray:
    return seconds(clock, [m.t for m in window.marks])


def latencies(window: Window, clock: HostClock | None) -> np.ndarray:
    """post() -> done-callback of every completion in the window, s."""
    return seconds(clock, window.done_at) - seconds(clock, window.posted_at)


def window_stats(orch: Any, window: Window) -> list[Any]:
    """The ``BatchStats`` of the batches that resolved inside ``window``."""
    lo, hi = window.marks[0].stats, window.marks[-1].stats
    return orch.run_stats.batches[lo:hi]


def sim_tps(orch: Any, stats: list[Any]) -> float:
    """Simulated-device throughput over ``stats``, the paper's unit."""
    return type(orch.run_stats)(batches=list(stats)).throughput_tps


def rss_mb_after(window: Window, commits: float) -> float:
    """Peak RSS at the first cycle boundary by which ``commits``
    transactions had committed inside the window (the last boundary if
    it never got that far): the footprint of a fixed amount of work, not
    of however much the host let the window do."""
    first = window.marks[0].committed
    for mark in window.marks:
        if mark.committed - first >= commits:
            break
    return mark.rss_kb / 1024.0


def timed(window: Window, clock: HostClock | None) -> dict[str, float]:
    """The window's three time-based metrics on ``clock``."""
    return {
        "commit_tps": window_tps(window, clock),
        "latency_p50_ms": percentile(np.sort(latencies(window, clock)), 50) * 1e3,
        # The whole window's p99 is set by its single slowest batch
        # cycle; the median of the segments' p99s is the tail of a
        # typical fifth of the window.
        "latency_p99_ms": statistics.median(segment_latency_ms(window, 99, clock)),
    }


def end_to_end(
    orch: Any, window: Window, clock: HostClock, setup_s: float, rss_mb: float
) -> dict[str, Metric]:
    first, last = window.marks[0], window.marks[-1]
    committed = last.committed - first.committed
    retries = last.retries - first.retries
    times = timed(window, clock)
    return {
        "commit_tps": _m(times["commit_tps"], "txn/s"),
        "latency_p50_ms": _m(times["latency_p50_ms"], "ms"),
        "latency_p99_ms": _m(times["latency_p99_ms"], "ms"),
        "attempts_per_commit": _m((committed + retries) / committed, "ratio"),
        "sim_mtps": _m(sim_tps(orch, window_stats(orch, window)) / 1e6, "Mtxn/s"),
        "peak_rss_mb": _m(rss_mb, "MB"),
        "setup_s": _m(setup_s, "s"),
    }


def segment_edges(window: Window) -> list[tuple[int, int]]:
    """The window's cycles split into :data:`SEGMENTS` equal groups, as
    pairs of indices into ``window.marks``."""
    groups = min(SEGMENTS, window.cycles)
    edges = [round(i * window.cycles / groups) for i in range(groups + 1)]
    return list(zip(edges, edges[1:]))


def segment_tps(window: Window, clock: HostClock | None) -> list[float]:
    """``commit_tps`` of each segment."""
    marks, t = window.marks, mark_times(window, clock)
    return [
        float((marks[b].committed - marks[a].committed) / (t[b] - t[a]))
        for a, b in segment_edges(window)
    ]


def segment_latency_ms(
    window: Window, p: float, clock: HostClock | None
) -> list[float]:
    """The ``p``-th percentile latency of each segment's completions."""
    marks, all_of_them = window.marks, latencies(window, clock)
    return [
        percentile(
            np.sort(all_of_them[marks[a].samples:marks[b].samples]), p
        ) * 1e3
        for a, b in segment_edges(window)
    ]


def segment_commit_rates(orch: Any, window: Window) -> list[float]:
    """Fraction of admitted lanes decided, per segment of the window."""
    stats = window_stats(orch, window)
    groups = min(SEGMENTS, len(stats))
    edges = [round(i * len(stats) / groups) for i in range(groups + 1)]
    rates = []
    for a, b in zip(edges, edges[1:]):
        lanes = sum(s.num_txns for s in stats[a:b])
        decided = sum(s.committed + s.logic_aborted for s in stats[a:b])
        rates.append(decided / lanes if lanes else 1.0)
    return rates


def window_tps(window: Window, clock: HostClock | None) -> float:
    first, last = window.marks[0], window.marks[-1]
    t = seconds(clock, [first.t, last.t])
    return float((last.committed - first.committed) / (t[1] - t[0]))


def per_layer(
    orch: Any,
    windows: list[Window],
    clock: HostClock,
    tracer: Tracer,
    make_batch_us: float,
) -> dict[str, Metric]:
    """Every per-layer metric; ``None`` where its hook is missing.

    ``windows`` are the run's thirds: plain, traced, plain.  Shares are
    ratios of wall times inside the traced window; times per request and
    per batch are wall times scaled to host seconds by the window's mean
    host speed."""
    before, traced, after = windows
    wall_ns = traced.wall * 1e9
    speed = clock.speed(traced.marks[0].t, traced.marks[-1].t)
    gone = tracer.missing_stems()
    stats = [s for s in window_stats(orch, traced) if s.num_txns]
    batches = len(stats)
    lanes = sum(s.num_txns for s in stats)
    out: dict[str, Metric] = {}

    def agg(stem: str):
        return None if stem in gone else tracer.aggs[stem]

    def share(stem: str, inclusive: bool = False) -> float | None:
        a = agg(stem)
        if a is None:
            return None
        return (a.total if inclusive else a.self_ns) / wall_ns

    def us_per_call(stem: str) -> float | None:
        a = agg(stem)
        if a is None:
            return None
        return a.self_ns * speed / 1e3 / a.calls if a.calls else 0.0

    def per_batch(stem: str) -> float | None:
        a = agg(stem)
        if a is None:
            return None
        return a.self_ns * speed / 1e6 / batches if batches else 0.0

    # repro.serve
    out["serve.post.us_per_req"] = _m(us_per_call("serve.post"), "us")
    out["serve.post.share"] = _m(share("serve.post"), "fraction")
    out["serve.admission.admit.us_per_req"] = _m(
        us_per_call("serve.admission.admit"), "us"
    )
    out["serve.admission.admit.share"] = _m(
        share("serve.admission.admit"), "fraction"
    )
    out["serve.policy.should_cut.share"] = _m(
        share("serve.policy.should_cut"), "fraction"
    )
    cut = agg("serve.policy.should_cut")
    out["serve.policy.calls_per_batch"] = _m(
        None if cut is None else (cut.calls / batches if batches else 0.0),
        "count",
    )
    retries = traced.marks[-1].retries - traced.marks[0].retries
    out["serve.batches"] = _m(batches, "count")
    out["serve.mean_batch_size"] = _m(lanes / batches if batches else 0.0, "txn")
    out["serve.retries_per_batch"] = _m(
        retries / batches if batches else 0.0, "txn"
    )

    # repro.txn
    out["txn.scheduler.admit.us_per_req"] = _m(
        us_per_call("txn.scheduler.admit"), "us"
    )
    out["txn.scheduler.admit.share"] = _m(share("txn.scheduler.admit"), "fraction")
    for stem in ("txn.scheduler.next_batch", "txn.scheduler.requeue_aborted"):
        out[f"{stem}.ms_per_batch"] = _m(per_batch(stem), "ms")
        out[f"{stem}.share"] = _m(share(stem), "fraction")

    # repro.core — run_batch inclusive; phases from the engine's own timers
    run = agg("core.run_batch")
    run_share = share("core.run_batch", inclusive=True)
    out["core.run_batch.ms_per_batch"] = _m(
        None if run is None
        else (run.total * speed / 1e6 / batches if batches else 0.0),
        "ms",
    )
    out["core.run_batch.share"] = _m(run_share, "fraction")
    have_phases = tracer.phase_batches > 0
    phase_ns = 0.0
    for phase in PHASES:
        ns = tracer.phases[phase] * 1e9
        phase_ns += ns
        out[f"core.{phase}.ms_per_batch"] = _m(
            ns * speed / 1e6 / batches if have_phases else None, "ms"
        )
        out[f"core.{phase}.share"] = _m(
            ns / wall_ns if have_phases else None, "fraction"
        )
    log_ns = sum(
        tracer.aggs[s].total
        for s in ("storage.log.append_batch", "storage.log.record_outcome")
        if s not in gone
    )
    other = None
    if run is not None and have_phases:
        other = run.total - phase_ns - log_ns
    out["core.other.ms_per_batch"] = _m(
        None if other is None else other * speed / 1e6 / batches, "ms"
    )
    out["core.other.share"] = _m(
        None if other is None else other / wall_ns, "fraction"
    )
    out["core.conflict_log.register.share"] = _m(
        share("core.conflict_log.register"), "fraction"
    )
    out["core.conflict_log.lookup.share"] = _m(
        share("core.conflict_log.lookup"), "fraction"
    )
    out["core.conflict_log.begin_end.ms_per_batch"] = _m(
        per_batch("core.conflict_log.begin_end"), "ms"
    )
    out["core.delayed_update.apply.share"] = _m(
        share("core.delayed_update.apply"), "fraction"
    )
    decided = sum(s.committed + s.logic_aborted for s in stats)
    out["core.commit_rate"] = _m(decided / lanes if lanes else 1.0, "fraction")
    out["core.ops_per_txn"] = _m(
        sum(s.atomic_ops for s in stats) / lanes if lanes else 0.0, "count"
    )
    waw = raw_war = logic = 0
    for s in stats:
        for reason, count in s.abort_reasons.items():
            if reason == "logic":
                logic += count
            elif "waw" in reason:
                waw += count
            else:
                raw_war += count
    for name, count in (("waw", waw), ("raw_war", raw_war), ("logic", logic)):
        out[f"core.abort_reason.{name}"] = _m(
            count / lanes if lanes else 0.0, "fraction"
        )

    # repro.storage
    for stem in ("storage.log.append_batch", "storage.log.record_outcome"):
        out[f"{stem}.ms_per_batch"] = _m(per_batch(stem), "ms")
        out[f"{stem}.share"] = _m(share(stem), "fraction")
    out["storage.table.append_keys.share"] = _m(
        share("storage.table.append_keys"), "fraction"
    )
    out["storage.index.bulk_insert.share"] = _m(
        share("storage.index.bulk_insert"), "fraction"
    )
    out["storage.inserts_per_batch"] = _m(
        tracer.rows_inserted / batches if batches else 0.0, "count"
    )
    out["storage.log.records"] = _m(
        sum(len(entry.records) for entry in orch.engine.batch_log.batches()),
        "count",
    )

    # repro.gpusim — simulated, exact
    def mean_us(values: list[float]) -> float:
        return sum(values) / len(values) / 1e3 if values else 0.0

    out["gpusim.sim_batch_latency_us"] = _m(
        mean_us([s.latency_ns for s in stats]), "us"
    )
    for phase in ("execute", "conflict", "writeback"):
        out[f"gpusim.sim_{phase}_us"] = _m(
            mean_us([s.phase_ns.get(phase, 0.0) for s in stats]), "us"
        )
    out["gpusim.sim_transfer_us"] = _m(
        mean_us([s.transfer_ns for s in stats]), "us"
    )
    atomic = sum(s.atomic_ops for s in stats)
    out["gpusim.atomic_serialization_rate"] = _m(
        sum(s.atomic_serialized for s in stats) / atomic if atomic else 0.0,
        "fraction",
    )
    out["gpusim.max_atomic_chain"] = _m(
        max((s.max_atomic_chain for s in stats), default=0), "count"
    )

    # harness
    out["workloads.make_batch.us_per_req"] = _m(make_batch_us, "us")
    driver_share = tracer.aggs[DRIVER].self_ns / wall_ns
    out["driver.share"] = _m(driver_share, "fraction")
    # What the orchestrator and asyncio spend between the timed calls:
    # cut, resolve and requeue bookkeeping.  Only a residual sees it
    # from outside.
    top_level = [
        "serve.post", "serve.admission.admit", "txn.scheduler.admit",
        "serve.policy.should_cut", "txn.scheduler.next_batch",
        "txn.scheduler.requeue_aborted",
    ]
    timed = driver_share + (run_share or 0.0) + sum(
        share(s) or 0.0 for s in top_level
    )
    out["serve.loop_other.share"] = _m(1.0 - timed, "fraction")
    # Not a layer but what every layer pays: collections run inside
    # whichever call allocated last, so this share overlaps the others.
    out["runtime.gc.share"] = _m(tracer.gc_ns / wall_ns, "fraction")
    out["run.drift_ratio"] = _m(
        window_tps(after, clock) / window_tps(before, clock), "ratio"
    )
    tps = segment_tps(before, clock)
    out["run.segment_tps_cv"] = _m(
        statistics.pstdev(tps) / statistics.fmean(tps), "ratio"
    )
    plain = (window_tps(before, clock) + window_tps(after, clock)) / 2
    out["trace.overhead_frac"] = _m(
        1.0 - window_tps(traced, clock) / plain, "fraction"
    )
    out["trace.missing_hooks"] = _m(len(tracer.missing), "count")
    return out
