"""Unit tests for the repro.trace primitives: Tracer and MetricsRegistry."""

import json

import pytest

from repro.errors import DeviceError
from repro.trace import (
    BATCH_TRACK,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    validate_nesting,
)

pytestmark = pytest.mark.trace


# -- sync spans -------------------------------------------------------------

def test_begin_end_nesting_depth_and_parent():
    t = Tracer()
    t.begin("outer", "s0", 0.0)
    t.begin("inner", "s0", 10.0)
    inner = t.end("s0", 20.0)
    outer = t.end("s0", 30.0)
    assert (outer.depth, outer.parent) == (0, -1)
    assert inner.depth == 1
    assert t.spans[inner.parent] is outer
    assert inner.duration_ns == 10.0
    assert t.open_depth("s0") == 0
    assert validate_nesting(t) == []


def test_complete_nests_under_open_span():
    t = Tracer()
    t.begin("phase:execute", "compute", 0.0, cat="phase")
    kernel = t.complete("execute", "compute", 2.0, 5.0, args={"threads": 4})
    t.end("compute", 10.0)
    assert kernel.depth == 1
    assert t.spans[kernel.parent].name == "phase:execute"
    assert kernel.args == {"threads": 4}
    assert t.total_ns("execute", "compute") == 5.0


def test_end_without_begin_raises():
    t = Tracer()
    with pytest.raises(DeviceError):
        t.end("s0", 1.0)


def test_end_before_start_raises():
    t = Tracer()
    t.begin("a", "s0", 10.0)
    with pytest.raises(DeviceError):
        t.end("s0", 5.0)


def test_tracks_and_spans_on():
    t = Tracer()
    t.complete("k", "h2d", 0.0, 1.0)
    t.complete("k", "d2h", 0.0, 1.0)
    assert t.tracks() == ["d2h", "h2d"]
    assert [s.track for s in t.spans_on("h2d")] == ["h2d"]


def test_reset_clears_everything():
    t = Tracer()
    t.begin("a", "s0", 0.0)
    t.async_span("b", id=1, start_ns=0.0, end_ns=1.0)
    t.flow_start("e", "s0", 0.0)
    t.counter("c", 0.0, v=1.0)
    t.reset()
    assert not t.spans and not t.async_spans and not t.flows
    assert not t.counters
    assert t.open_depth("s0") == 0
    # flow ids restart from zero
    assert t.flow_start("e", "s0", 0.0) == 0


# -- validate_nesting -------------------------------------------------------

def test_validate_flags_child_escaping_parent():
    t = Tracer()
    t.begin("parent", "s0", 0.0)
    t.complete("child", "s0", 5.0, 100.0)  # ends long after the parent
    t.end("s0", 10.0)
    problems = validate_nesting(t)
    assert any("escapes parent" in p for p in problems)


def test_validate_flags_sibling_overlap():
    t = Tracer()
    t.complete("a", "s0", 0.0, 10.0)
    t.complete("b", "s0", 5.0, 10.0)
    problems = validate_nesting(t)
    assert any("overlap" in p for p in problems)


def test_validate_flags_leftover_open_span():
    t = Tracer()
    t.begin("open", "s0", 0.0)
    problems = validate_nesting(t)
    assert any("left open" in p for p in problems)


# -- chrome export ----------------------------------------------------------

def test_to_chrome_event_structure():
    t = Tracer()
    t.begin("phase:execute", "compute", 1000.0, cat="phase")
    t.complete("execute", "compute", 1000.0, 2000.0)
    t.end("compute", 4000.0)
    t.async_span("batch 0", id=0, start_ns=0.0, end_ns=5000.0,
                 args={"committed": 3})
    fid = t.flow_start("h2d_done", "h2d", 500.0)
    t.flow_finish("h2d_done", fid, "compute", 900.0)
    t.counter("commit_rate", 5000.0, rate=0.75)

    trace = t.to_chrome()
    events = trace["traceEvents"]
    by_ph = {}
    for ev in events:
        by_ph.setdefault(ev["ph"], []).append(ev)

    # one thread_name metadata record per track
    names = {ev["args"]["name"] for ev in by_ph["M"]}
    assert names == {"compute", "h2d", BATCH_TRACK}
    # X events carry µs timestamps (ns / 1e3)
    execute = next(e for e in by_ph["X"] if e["name"] == "execute")
    assert execute["ts"] == 1.0 and execute["dur"] == 2.0
    # async envelopes pair b/e on the same id
    assert len(by_ph["b"]) == len(by_ph["e"]) == 1
    assert by_ph["b"][0]["id"] == by_ph["e"][0]["id"]
    # flow finish binds to the enclosing slice
    assert by_ph["f"][0]["bp"] == "e"
    assert by_ph["s"][0]["id"] == by_ph["f"][0]["id"]
    assert by_ph["C"][0]["args"] == {"rate": 0.75}


def test_write_round_trips_json(tmp_path):
    t = Tracer()
    t.complete("k", "s0", 0.0, 1.0)
    path = tmp_path / "trace.json"
    t.write(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"]
    assert loaded["displayTimeUnit"] == "ns"


# -- metrics ----------------------------------------------------------------

def test_counter_monotone():
    c = Counter("n")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_extremes_and_mean():
    g = Gauge("n")
    for v in (2.0, 8.0, 5.0):
        g.set(v)
    assert g.value == 5.0
    assert (g.min, g.max) == (2.0, 8.0)
    assert g.mean == pytest.approx(5.0)


def test_histogram_numeric_and_label_keys():
    h = Histogram("n")
    h.observe(0, count=3)
    h.observe(1)
    h.observe("waw", count=2)
    h.observe(0, count=0)  # no-op
    assert h.counts[0] == 3 and h.counts["waw"] == 2
    assert h.total == 6
    with pytest.raises(ValueError):
        h.observe(0, count=-1)


def test_registry_get_or_create_and_snapshot():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    reg.counter("a").inc(3)
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe("x", 2)
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 3}
    assert snap["gauges"]["g"]["last"] == 1.5
    assert snap["histograms"]["h"] == {"x": 2}
    # JSON-ready: plain types only
    json.dumps(snap)
    text = reg.render()
    assert "a = 3" in text and "h = {x: 2}" in text
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_unset_gauge_snapshot_is_zero():
    reg = MetricsRegistry()
    reg.gauge("g")
    snap = reg.snapshot()["gauges"]["g"]
    assert snap == {"last": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
