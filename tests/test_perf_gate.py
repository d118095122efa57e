"""The gate rows of ``scripts/check_wallclock.py``.

The ``execute`` row's measurement is host wall-clock, so the test that
runs it is opt-in (``pytest -m perf``; deselected by default with
``addopts = -m "not perf"``).  Everything else here feeds the walker
the committed artifacts, an edited copy of one, or fabricated
measurements, and runs in the default suite.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_BASELINE = os.path.join(_ROOT, "BENCH_wallclock.json")
_SERVE = os.path.join(_ROOT, "BENCH_serve.json")


def _load_gate():
    path = os.path.join(_ROOT, "scripts", "check_wallclock.py")
    spec = importlib.util.spec_from_file_location("check_wallclock", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _committed() -> dict:
    with open(_BASELINE) as fh, open(_SERVE) as serve:
        return {"wallclock": json.load(fh), "serve": json.load(serve)}


@pytest.mark.perf
def test_execute_phase_within_30pct_of_committed_baseline():
    if not os.path.exists(_BASELINE):
        pytest.skip("no committed BENCH_wallclock.json baseline")
    assert _load_gate().walk(["execute"]) == 0, (
        "execute-phase host time of the default (batched) engine regressed "
        ">30% vs BENCH_wallclock.json; "
        "investigate, or regenerate the baseline with "
        "`python benchmarks/bench_wallclock.py` if the change is intended"
    )


def test_execute_row_fails_over_its_committed_bound(capsys):
    gate = _load_gate()
    base = _committed()["wallclock"]["seconds_per_batch"]["batched"]["4096"]["execute"]

    def measured(execute: float) -> dict:
        cell = {"execute": execute}
        return {"execute": {"seconds_per_batch": {"batched": {"4096": cell}}}}

    assert gate.walk(["execute"], measured(base * 1.31)) == 1
    row = capsys.readouterr().out.splitlines()[0]
    assert row.startswith("execute seconds @ batch 4096") and row.endswith("-> FAIL")
    assert gate.walk(["execute"], measured(base * 1.29)) == 0


# -- artifact schema: not a timing, so it runs in the default suite -------


def test_committed_bench_artifacts_have_every_documented_key():
    assert _load_gate().walk(["schema"]) == 0


def test_schema_gate_catches_empty_and_partial_documented_keys(capsys):
    gate = _load_gate()
    committed = _committed()
    doc = committed["wallclock"]

    def verdict(mutate) -> tuple[int, str]:
        broken = copy.deepcopy(doc)
        mutate(broken)
        rc = gate.walk(["schema"], {"schema": {**committed, "wallclock": broken}})
        return rc, capsys.readouterr().out

    # the state the file was committed in before the gate existed
    rc, out = verdict(lambda d: d.update(transfers_per_batch={}))
    assert rc == 1 and "transfers_per_batch: empty" in out

    def drop_one_batch_size(d):
        column = next(iter(d["transfers_per_batch"].values()))
        del column[str(d["batch_sizes"][-1])]

    rc, out = verdict(drop_one_batch_size)
    assert rc == 1 and "no entry for batch size" in out

    rc, out = verdict(lambda d: d["seconds_per_batch"]["batched"].clear())
    assert rc == 1 and "seconds_per_batch.batched: empty" in out

    rc, out = verdict(lambda d: d["meta"].pop("cpu_count"))
    assert rc == 1 and "meta.cpu_count: missing" in out

    # the small-batch section: gone, or short of a lane count
    rc, out = verdict(lambda d: d.pop("small_batch"))
    assert rc == 1 and "small_batch: missing" in out

    def drop_one_lane_count(d):
        small = d["small_batch"]
        del small["ms_per_batch"]["batched"][str(small["lanes"][0])]

    rc, out = verdict(drop_one_lane_count)
    assert rc == 1 and "small_batch.ms_per_batch.batched: no entry for lane" in out

    # the conflict-free stream the sweep used to time (lanes without
    # TIDs: every lane commits, only logic aborts), if it came back
    headline = str(doc["batch_sizes"][-3])

    def commit_everything(d):
        d["seconds_per_batch"]["batched"][headline]["commit_rate"] = 1.0

    rc, out = verdict(commit_everything)
    assert rc == 1
    assert f"seconds_per_batch.batched.{headline}: commit_rate 1.0" in out

    rc, out = verdict(lambda d: d["metrics"].update(abort_reasons={"logic": 138}))
    assert rc == 1 and "metrics.abort_reasons: only logic aborts" in out

    # a column the sweep no longer has, left behind by a stale file
    rc, out = verdict(lambda d: d["seconds_per_batch"].update(parallel={}))
    assert rc == 1 and "seconds_per_batch.parallel: not documented" in out


def test_serve_artifact_records_nothing_about_the_host(capsys):
    gate = _load_gate()
    committed = _committed()
    assert not {"python", "platform"} & set(committed["serve"]["meta"])
    stale = copy.deepcopy(committed["serve"])
    stale["meta"]["platform"] = "Linux"
    assert gate.walk(["schema"], {"schema": {**committed, "serve": stale}}) == 1
    assert "serve.meta.platform: not documented" in capsys.readouterr().out


def test_a_fresh_wallclock_sweep_passes_the_schema_rows(monkeypatch, capsys):
    """What ``python -m repro.bench wallclock`` writes, at a tiny scale:
    every column the docs name, the mockgpu one and its ledger included."""
    from repro.bench import wallclock

    monkeypatch.setattr(wallclock, "SMALL_BATCH_BATCHES", 2)
    doc = wallclock.run(scale=64, rounds=1, batch_sizes=(1024, 2048), warehouses=2)
    fresh = json.loads(json.dumps(doc.to_json()))
    docs = {"schema": {**_committed(), "wallclock": fresh}}
    assert _load_gate().walk(["schema"], docs) == 0, capsys.readouterr().out


# -- device rows, on fabricated ledgers (no engine run) -------------------


def _device(h2d=(1_165_034, 1_165_034), syncs=(0, 0), spread=0.0) -> dict:
    doc = {
        str(w): {"total": {"h2d_bytes": b, "implicit_syncs": s}}
        for w, b, s in zip((4, 16), h2d, syncs)
    }
    return {**doc, "h2d_spread": spread}


@pytest.mark.parametrize(
    "measured, row",
    [
        (_device(syncs=(0, 1)), "implicit syncs @ 16 warehouses"),
        (_device(h2d=(4096 * 160 * 10 + 1, 1_165_034)),
         "steady H2D bytes @ 4 warehouses"),
        (_device(spread=0.03), "H2D spread across sizes"),
    ],
    ids=["implicit-sync", "h2d-over-budget", "spread-3pct"],
)
def test_device_row_fails_and_names_itself(measured, row, capsys):
    gate = _load_gate()
    assert gate.walk(["device"], {"device": measured}) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in out if line.endswith("-> FAIL")] == [row]
    assert gate.walk(["device"], {"device": _device()}) == 0


def test_cli_takes_gate_names_only(capsys):
    gate = _load_gate()
    assert gate.main([]) == 2
    assert gate.main(["--schema"]) == 2
    assert gate.main(["serve"]) == 2
    assert "usage: check_wallclock.py {schema,device,execute}" in capsys.readouterr().err
