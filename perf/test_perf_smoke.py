"""Smoke test of the benchmark itself: ``pytest perf/`` (< 30 s).

Not collected by the repo's tier-1 suite (``testpaths = tests``).  Each
workload runs at ``--scale smoke`` — small tables, a window of about
two dozen batches — in this process.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402  (puts src/ on sys.path)
import tracing  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_names_the_workloads_defined_here():
    assert NAMES == list(WORKLOADS)
    assert SPEC["paths"] == ["perf"]
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("name", NAMES)
def test_plain_run_emits_every_end_to_end_metric(name):
    report = run.run_workload(name, seed=5, seconds=0.5, trace=False, scale="smoke")
    assert report["problems"] == []
    assert report["meta"]["config_dropped"] == []
    for spec in SPEC["end_to_end"]:
        metric = report["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # the tail cannot deadlock: the driver stops posting on a batch
    # boundary and drain() flushes the partial batches that remain
    counts = report["counts"]
    assert counts["unresolved"] == counts["failed"] == counts["shed"] == 0
    assert counts["posted"] == counts["completed"]
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    report = run.run_workload(name, seed=5, seconds=1.0, trace=True, scale="smoke")
    assert report["problems"] == []
    assert report["missing_hooks"] == []
    values = {k: m["value"] for k, m in report["metrics"].items()}
    for spec in SPEC["per_layer"]:
        assert report["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert values[spec["name"]] is not None
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["trace.missing_hooks"] == 0

    # level 1: the window is the timed calls plus what the loop spends
    # between them; level 2: run_batch is its phases, the two log calls
    # and a remainder.  A residual below zero means double counting.
    level1 = [
        "driver.share", "serve.post.share", "serve.admission.admit.share",
        "txn.scheduler.admit.share", "serve.policy.should_cut.share",
        "txn.scheduler.next_batch.share",
        "txn.scheduler.requeue_aborted.share", "core.run_batch.share",
        "serve.loop_other.share",
    ]
    assert sum(values[k] for k in level1) == pytest.approx(1.0, abs=0.02)
    assert values["serve.loop_other.share"] > -0.02
    level2 = [
        "core.execute.share", "core.conflict.share", "core.writeback.share",
        "core.assemble.share", "storage.log.append_batch.share",
        "storage.log.record_outcome.share", "core.other.share",
    ]
    assert sum(values[k] for k in level2) == pytest.approx(
        values["core.run_batch.share"], abs=0.02
    )
    assert values["core.other.share"] > -0.02
    assert os.path.exists(os.path.join(run.OUT, f"trace_{name}.json"))
    # the hooks are gone again once the traced window has closed
    for _layer, _per_request, paths in tracing.HOOKS.values():
        for path in paths:
            assert tracing.resolve(path)[2].__module__.startswith("repro.")


def test_traced_run_forms_the_same_batches_as_a_plain_run():
    plain = run.run_workload("smallbank_hot", 9, 0.5, trace=False, scale="smoke")
    traced = run.run_workload("smallbank_hot", 9, 1.0, trace=True, scale="smoke")
    common = min(len(plain["batch_chain"]), len(traced["batch_chain"]))
    assert common > 10
    assert plain["batch_chain"][common - 1] == traced["batch_chain"][common - 1]


def test_config_helper_drops_names_the_config_no_longer_has():
    config, dropped = make_config(batch_size=64, batched_exec=True, gone_flag=1)
    assert dropped == ["gone_flag"]
    assert config.batch_size == 64


def test_a_hook_that_is_gone_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(
        tracing.HOOKS, "serve.post", ("serve", True, ("repro.serve.Orchestrator.gone",))
    )
    report = run.run_workload("ycsb_read", 5, 0.6, trace=True, scale="smoke")
    assert report["missing_hooks"] == ["repro.serve.Orchestrator.gone"]
    assert report["metrics"]["serve.post.share"]["value"] is None
    assert report["metrics"]["trace.missing_hooks"]["value"] == 1
    assert json.loads(run.result_line(report))["metrics"]["serve.post.share"][
        "value"
    ] == 0


def test_host_clock_counts_a_slow_second_for_less():
    clock = hostclock.HostClock()
    unit = hostclock.NOMINAL_UNIT_S
    # full speed for ten seconds, then slowing to half speed
    clock.at = [0.0, 10.0, 20.0]
    clock.unit = [unit, unit, 2 * unit]
    seconds = clock.host_seconds([-1.0, 0.0, 5.0, 10.0, 20.0, 24.0])
    assert list(seconds) == pytest.approx(
        [-1.0, 0.0, 5.0, 10.0, 10.0 + 10 / 1.5, 10.0 + 10 / 1.5 + 4 / 2]
    )
    assert clock.speed(10.0, 20.0) == pytest.approx(1 / 1.5)
    # neither the unit nor what the harness leaves out is on the clock
    before = clock.now()
    clock.sample()
    after = clock.now()
    assert after - before < clock.unit[-1]
    clock.leave_out(5.0)
    assert clock.now() < after - 4.0


def test_compare_verdicts():
    steady_a, steady_b = [100.0, 101.0, 99.0, 100.5], [97.0, 98.0, 96.5, 97.5]
    assert compare.verdict(steady_a, steady_b, "higher", 0.10) == "ok"
    assert compare.verdict(steady_a, [80.0, 81.0, 79.0, 80.5], "higher", 0.10) == (
        "regressed"
    )
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.verdict(noisy, [95.0, 130.0, 60.0, 110.0], "higher", 0.10) == (
        "unresolved"
    )
    assert compare.verdict(noisy, [150.0, 190.0, 145.0, 160.0], "higher", 0.10) == "ok"
    assert compare.verdict([10.0], [10.5], "lower", 0.10) == "ok"
    assert compare.verdict([10.0], [12.0], "lower", 0.10) == "regressed"
