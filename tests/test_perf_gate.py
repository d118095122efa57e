"""Opt-in host wall-clock regression gate (``pytest -m perf``).

Deselected by default (``addopts = -m "not perf"``): wall-clock numbers
are machine-dependent and have nothing to do with the simulated-time
correctness the default suite checks.  The gate logic itself lives in
``scripts/check_wallclock.py`` so CI can also run it standalone.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_BASELINE = os.path.join(_ROOT, "BENCH_wallclock.json")


def _load_gate():
    path = os.path.join(_ROOT, "scripts", "check_wallclock.py")
    spec = importlib.util.spec_from_file_location("check_wallclock", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.perf
def test_execute_phase_within_30pct_of_committed_baseline():
    if not os.path.exists(_BASELINE):
        pytest.skip("no committed BENCH_wallclock.json baseline")
    gate = _load_gate()
    assert gate.check(_BASELINE) == 0, (
        "execute-phase host time of the default (batched) engine regressed "
        ">30% vs BENCH_wallclock.json; "
        "investigate, or regenerate the baseline with "
        "`python benchmarks/bench_wallclock.py` if the change is intended"
    )


# -- artifact schema: not a timing, so it runs in the default suite -------

_SERVE = os.path.join(_ROOT, "BENCH_serve.json")


def test_committed_bench_artifacts_have_every_documented_key():
    assert _load_gate().check_schema(_BASELINE, _SERVE) == 0


def test_schema_gate_catches_empty_and_partial_documented_keys(tmp_path, capsys):
    import json

    gate = _load_gate()
    with open(_BASELINE) as fh:
        doc = json.load(fh)

    def verdict(mutate) -> tuple[int, str]:
        broken = json.loads(json.dumps(doc))
        mutate(broken)
        path = tmp_path / "wallclock.json"
        path.write_text(json.dumps(broken))
        rc = gate.check_schema(str(path), _SERVE)
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
