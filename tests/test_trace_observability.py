"""Observability-harness tests: the repro.trace satellites.

* differential: the tracer's kernel spans per phase == summed
  ``BatchStats.phase_ns`` across all three workloads;
* span trees nest without overlap per stream on traced runs;
* trace reproducibility: back-to-back runs on one device produce
  identical spans after ``Device.reset_clock`` (stream clocks rewind to 0);
* Hypothesis properties for ``RunStats`` percentiles / aggregates;
* regression: a txn aborted in batch *k* with retry delay *d* is
  re-admitted in batch *k+d* exactly once, and its depth lands in the
  ``engine.reschedule_depth`` histogram;
* bench wiring: metrics ride along in steady-state and wallclock JSON.
"""

import importlib.util
import json
from collections import Counter as CounterDict
from itertools import chain, count, islice
from pathlib import Path

import pytest
from helpers import bank_engine, tids, txn
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.workload import WORKLOAD_NAMES, build_workload
from repro.bench import format_metrics, steady_state_run
from repro.core import LTPGConfig
from repro.core.stats import BatchStats, RunStats
from repro.trace import validate_nesting
from repro.trace.cli import capture, main
from repro.txn.batch import BatchScheduler, drive

pytestmark = pytest.mark.trace

PHASES = ("execute", "conflict", "writeback")


def _check_trace_module():
    path = Path(__file__).resolve().parent.parent / "scripts" / "check_trace.py"
    spec = importlib.util.spec_from_file_location("check_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- satellite 1: device spans vs BatchStats differential -------------------

@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_profiler_phase_totals_match_batch_stats(workload):
    # the device's kernel spans (stamped by Device.kernel) are a record
    # independent of the stage clocks BatchStats.phase_ns is built from
    setup = build_workload(workload, seed=11)
    engine = setup.engine(batch_size=96, trace=True)
    scheduler = BatchScheduler(96)
    scheduler.admit(setup.generator.make_batch(2 * 96))
    run = engine.process(scheduler, max_batches=2)
    assert run.num_batches == 2

    totals = run.phase_totals()
    for phase in PHASES:
        spans = engine.tracer.total_ns(phase)
        assert spans == pytest.approx(totals[phase], rel=1e-12), phase


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_span_trees_nest_per_stream(workload):
    tracer, _metrics, run = capture(workload, batches=2, batch_size=96)
    assert validate_nesting(tracer) == []
    # pipelined: h2d / compute / d2h legs land on distinct stream tracks
    assert len(tracer.tracks()) >= 2
    names = {s.name for s in tracer.spans}
    assert {f"phase:{p}" for p in PHASES} <= names
    # kernel spans are children of their phase span
    for span in tracer.spans:
        if span.name in PHASES:
            assert tracer.spans[span.parent].name == f"phase:{span.name}"
    # one async envelope per processed batch, overlap allowed
    assert len(tracer.async_spans) == run.num_batches
    # the simulated clock is the only clock: spans never run backwards
    for span in tracer.spans:
        assert span.end_ns >= span.start_ns >= 0.0


def test_phase_span_duration_covers_kernel(tmp_path):
    tracer, _metrics, run = capture("smallbank", batches=1, batch_size=64,
                                    pipelined=False)
    exec_phase = tracer.total_ns("phase:execute")
    exec_kernel = tracer.total_ns("execute")
    assert exec_kernel > 0.0
    assert exec_phase >= exec_kernel
    # phase spans agree with the stats the engine reported
    assert exec_kernel == pytest.approx(run.phase_totals()["execute"])


# -- satellite 4: Device.reset_clock + trace reproducibility ---------------

def _traced_bank_engine(**config):
    engine, _db, _reg = bank_engine(
        config=LTPGConfig(batch_size=8, trace=True, **config)
    )
    return engine


def _run_fixed_batch(engine):
    batch = [
        txn("transfer", 0, 1, 5),
        txn("deposit", 2, 7),
        txn("audit", 3, 4),
        txn("transfer", 5, 6, 1),
    ]
    tids(batch)
    engine.run_batch(batch)
    return [
        (s.name, s.track, s.start_ns, s.end_ns, s.depth, s.parent)
        for s in engine.tracer.spans
    ]


def test_profiler_reset_rewinds_stream_clocks():
    engine = _traced_bank_engine()
    _run_fixed_batch(engine)
    device = engine.device
    assert device.stream(engine.compute_stream).time_ns > 0.0
    device.reset_clock()
    assert device.elapsed_ns() == 0.0
    for name in (engine.h2d_stream, engine.compute_stream, engine.d2h_stream):
        assert device.stream(name).time_ns == 0.0


def test_back_to_back_traces_are_identical():
    engine = _traced_bank_engine()
    first = _run_fixed_batch(engine)
    assert min(s[2] for s in first) == 0.0  # first run starts at ns zero

    engine.device.reset_clock()
    engine.tracer.reset()
    second = _run_fixed_batch(engine)
    assert min(s[2] for s in second) == 0.0  # ...and so does the second
    assert second == first


def _serve_fixed_stream(engine):
    """Serve a fixed request stream on a fresh virtual clock; capture
    every engine span plus the serve layer's own async spans."""
    from repro.serve.clock import run_simulation
    from repro.serve.orchestrator import Orchestrator
    from repro.serve.policies import DeadlinePolicy

    async def main():
        async with Orchestrator(
            engine, policy=DeadlinePolicy(4, max_wait_ns=500)
        ) as orch:
            futures = []
            for i, (name, params) in enumerate([
                ("transfer", (0, 1, 5)),
                ("deposit", (2, 7)),
                ("audit", (3, 4)),
                ("transfer", (5, 6, 1)),
                ("deposit", (9, 2)),
            ]):
                await orch.clock.sleep_ns(100 * i)
                futures.append(orch.post(name, params))
        return [await f for f in futures]

    responses = run_simulation(main())
    spans = [
        (s.name, s.track, s.start_ns, s.end_ns, s.depth, s.parent)
        for s in engine.tracer.spans
    ]
    serve_spans = [
        (s.name, s.track, s.start_ns, s.end_ns, tuple(sorted(s.args.items())))
        for s in engine.tracer.async_spans
        if s.track == "serve.batches"
    ]
    latencies = [r.latency_ns for r in responses]
    return spans, serve_spans, latencies


def test_serve_runs_reset_to_identical_traces():
    """reset_run_state() is to a serve run what Device.reset_clock is
    to a batch: both timelines (device spans *and* serve batch spans) rewind
    to t=0 and replay bit-identically on the next run."""
    engine = _traced_bank_engine()
    first = _serve_fixed_stream(engine)
    assert min(s[2] for s in first[0]) == 0.0
    # fresh clock: the first cut lands exactly at the 500 ns deadline of
    # the t=0 arrival, not at some drifted later instant
    assert min(s[2] for s in first[1]) == 500.0

    engine.reset_run_state()
    second = _serve_fixed_stream(engine)
    assert second == first


def test_reset_run_state_rewinds_everything():
    """The engine-side hygiene behind back-to-back serve runs: clocks,
    tracer, metrics, and the batch counter all return to zero while
    persistent state (the database) survives."""
    engine = _traced_bank_engine()
    _run_fixed_batch(engine)
    digest = engine.database.state_digest()
    assert engine.device.stream(engine.compute_stream).time_ns > 0.0
    assert engine.tracer.spans

    engine.reset_run_state()
    assert engine.device.stream(engine.compute_stream).time_ns == 0.0
    assert engine.tracer.spans == []
    assert engine._batch_counter == 0
    assert len(engine.batch_log) == 0
    assert engine.database.state_digest() == digest


# -- satellite 2: Hypothesis properties for RunStats ------------------------

def _run_from(latencies):
    run = RunStats()
    for i, lat in enumerate(latencies):
        run.add(BatchStats(i, 10, 10, 0, latency_ns=lat))
    return run


latency_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    min_size=1,
    max_size=50,
)
percentiles = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(latency_lists, percentiles, percentiles)
def test_latency_percentile_monotone_in_p(latencies, p1, p2):
    run = _run_from(latencies)
    lo, hi = sorted((p1, p2))
    assert run.latency_percentile(lo) <= run.latency_percentile(hi)


@given(latency_lists)
def test_latency_percentile_extremes(latencies):
    run = _run_from(latencies)
    assert run.latency_percentile(0) == min(latencies)
    assert run.latency_percentile(100) == max(latencies)


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False), percentiles)
def test_latency_percentile_single_batch_is_constant(latency, p):
    run = _run_from([latency])
    assert run.latency_percentile(p) == latency


@given(st.sampled_from([-0.1, 100.1, 1e9, -5.0]))
def test_latency_percentile_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        _run_from([1.0]).latency_percentile(p)


def test_empty_run_aggregates():
    run = RunStats()
    assert run.mean_commit_rate == 1.0
    assert run.abort_reason_totals() == CounterDict()
    assert run.latency_percentile(50) == 0.0
    assert run.reschedule_depth_totals() == CounterDict()
    assert run.metrics_summary()["atomic"]["ops"] == 0


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=64))
def test_all_aborted_run_aggregates(num_batches, batch_size):
    run = RunStats()
    for i in range(num_batches):
        run.add(
            BatchStats(
                i, batch_size, 0, batch_size,
                abort_reasons=CounterDict({"waw": batch_size}),
            )
        )
    assert run.mean_commit_rate == 0.0
    assert run.total_committed == 0
    totals = run.abort_reason_totals()
    assert totals["waw"] == num_batches * batch_size
    assert run.metrics_summary()["abort_reasons"] == {
        "waw": num_batches * batch_size
    }


# -- satellite 3: retry re-admission regression -----------------------------

@pytest.mark.parametrize("delay", [1, 2, 3])
def test_abort_readmitted_after_exact_delay(delay):
    engine = _traced_bank_engine(retry_delay_batches=delay)
    scheduler = BatchScheduler(4)
    # two transfers on the same accounts: the higher TID loses on WAW
    scheduler.admit([
        txn("transfer", 0, 1, 5),
        txn("transfer", 0, 1, 7),
        txn("audit", 2, 3),
        txn("audit", 4, 5),
    ])
    # later batches are topped up with non-conflicting deposits, so no
    # cut is empty and the k-th result is the k-th batch
    deposits = (txn("deposit", account, 1) for account in count(16))
    appearances: dict[int, list[int]] = {}
    aborted_tids: list[int] = []
    batches = drive(
        engine,
        scheduler,
        lambda n: list(islice(deposits, n)),
        max_batches=delay + 2,
    )
    for k, result in enumerate(batches):
        for t in chain(result.committed, result.aborted, result.logic_aborted):
            appearances.setdefault(t.tid, []).append(k)
        if k == 0:
            aborted_tids = [t.tid for t in result.aborted]
            assert len(aborted_tids) == 1

    # aborted in batch 0 -> re-admitted in batch 0 + delay, exactly once
    for tid in aborted_tids:
        assert appearances[tid] == [0, delay]
    # the retry committed on its second attempt: depth 1 in the histogram
    depths = engine.metrics.histogram("engine.reschedule_depth").counts
    assert depths[1] == len(aborted_tids)
    assert depths[0] > 0


# -- bench wiring -----------------------------------------------------------

class _DepositGenerator:
    """Round-robin commutative deposits: no CC aborts, fully full batches."""

    def __init__(self, accounts: int = 32):
        self.accounts = accounts
        self._i = 0

    def make_batch(self, size):
        out = [
            txn("deposit", (self._i + j) % self.accounts, 1)
            for j in range(size)
        ]
        self._i += size
        return out


def test_steady_state_run_snapshots_metrics_when_traced():
    engine, _db, _reg = bank_engine(
        config=LTPGConfig(batch_size=8, trace=True)
    )
    result = steady_state_run(engine, _DepositGenerator(), 8, 3)
    assert result.metrics is not None
    assert result.metrics["counters"]["txn.admitted"] == 24
    assert result.metrics["counters"]["txn.committed"] == 24


def test_steady_state_run_untraced_has_no_metrics():
    engine, _db, _reg = bank_engine(config=LTPGConfig(batch_size=8))
    result = steady_state_run(engine, _DepositGenerator(), 8, 2)
    assert engine.tracer is None and engine.metrics is None
    assert result.metrics is None


def test_wallclock_measure_metrics_and_json():
    from repro.bench.wallclock import WallclockResult, measure_metrics

    summary = measure_metrics(scale=512.0, batches=1)
    assert set(summary) == {
        "atomic", "warp", "conflict_log", "abort_reasons", "reschedule_depth",
    }
    assert summary["atomic"]["ops"] > 0
    result = WallclockResult(metrics=summary)
    assert result.to_json()["metrics"] is summary
    text = format_metrics(summary)
    assert "atomic.ops" in text


# -- CLI + schema validator -------------------------------------------------

def test_trace_cli_writes_valid_trace(tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    rc = main([
        "--workload", "smallbank",
        "--batches", "2",
        "--batch-size", "64",
        "--out", str(trace_path),
        "--metrics-out", str(metrics_path),
    ])
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    check_trace = _check_trace_module()
    assert check_trace.validate(trace, min_tracks=2) == []
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["txn.admitted"] == 128


def test_trace_cli_rejects_bad_batch_count(tmp_path):
    assert main(["--batches", "0", "--out", str(tmp_path / "t.json")]) == 2


def test_check_trace_rejects_malformed_traces():
    check_trace = _check_trace_module()
    assert check_trace.validate({}) == ["traceEvents missing or empty"]
    bad = {
        "traceEvents": [
            {"ph": "X", "name": "a", "tid": 0, "ts": 0.0, "dur": 10.0},
            {"ph": "X", "name": "b", "tid": 0, "ts": 5.0, "dur": 10.0},
        ]
    }
    errors = check_trace.validate(bad, min_tracks=1)
    assert any("escapes" in e for e in errors)
    assert any("missing phase span" in e for e in errors)


# -- per-procedure-group execute observability -------------------------------

def test_execute_group_spans_and_metrics():
    """Each traced batch subdivides its execute window into one span per
    procedure group (track ``execute.groups``), and the metrics registry
    tallies per-procedure ops and lane counts."""
    tracer, metrics, run = capture("tpcc", batches=2, batch_size=96)

    group_spans = [s for s in tracer.spans if s.track == "execute.groups"]
    assert group_spans, "no per-procedure-group execute spans recorded"
    names = {s.name for s in group_spans}
    assert names <= {"execute:neworder", "execute:payment"}
    assert len(names) == 2  # the 50/50 mix runs both procedures
    for span in group_spans:
        assert span.cat == "group"
        assert span.args["lanes"] > 0
        assert span.args["ops"] >= 0
        assert span.end_ns >= span.start_ns
    # spans account for every transaction of every batch exactly once
    assert sum(s.args["lanes"] for s in group_spans) == run.total_admitted

    ops_hist = metrics.histogram("execute.procedure_ops")
    size_hist = metrics.histogram("execute.group_size")
    assert set(ops_hist.counts) == {"neworder", "payment"}
    assert size_hist.counts["neworder"] + size_hist.counts["payment"] \
        == run.total_admitted
    # ops tallies match what the spans carried
    for proc in ("neworder", "payment"):
        span_ops = sum(
            s.args["ops"] for s in group_spans if s.name == f"execute:{proc}"
        )
        assert ops_hist.counts[proc] == span_ops
