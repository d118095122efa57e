"""Seeded-violation tests for the kernellint static pass.

Every rule class is proven *live*: a twin seeded with exactly one
violation must produce a finding with the expected ``KLxxx`` code,
anchored inside the twin's own source span in this file.  The committed
workload twins must stay clean (the suppressed sanctioned readbacks in
``tpcc/batched.py`` carry explicit allow markers).

The violation twins are module-level functions so ``inspect`` finds
their source.
"""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from repro.analysis import cli
from repro.analysis.findings import KERNELLINT
from repro.analysis.kernellint import (
    RULES,
    drift_findings,
    lint_registry_twins,
    lint_twin_unit,
    source_unit,
    unwrap_twin,
)
from repro.analysis.passes import run_kernellint, run_pass
from repro.txn.procedures import ProcedureRegistry

pytestmark = pytest.mark.analysis


# -- seeded violation twins -------------------------------------------------

def _bad_implicit_int(bctx, params):
    v = params.column(0)
    return int(v[0])


def _bad_branch_on_device(bctx, params):
    v = params.column(0)
    if v[0] > 0:
        bctx.logic_abort(bctx.all_lanes())


def _bad_iterate_device(bctx, params):
    v = params.column(0)
    total = 0
    for x in v:
        total += x
    return total


def _bad_unmarked_readback_loop(bctx, params):
    xp = bctx.xp
    v = params.column(0)
    out = []
    for k in xp.tolist(v):
        out.append(k)
    return out


def _ok_marked_readback_loop(bctx, params):
    xp = bctx.xp
    v = params.column(0)
    out = []
    # kernellint: allow[KL105] index probe over one explicit D2H
    for k in xp.tolist(v):
        out.append(k)
    return out


def _bad_host_table_column(bctx, params, table):
    v = params.column(0)
    ytd = table.column("w_ytd")
    return ytd[v]


def _bad_private_table_storage(bctx, params, table):
    v = params.column(0)
    return table._columns["w_ytd"][v]


def _ok_marked_host_table_column(bctx, params, table):
    v = params.column(0)
    # kernellint: allow[KL106] cold catalog probe, fenced once at setup
    ytd = table.column("w_ytd")
    return ytd[v]


def _bad_raw_numpy(bctx, params):
    v = params.column(0)
    return np.sort(v)


def _bad_off_protocol_xp(bctx, params):
    xp = bctx.xp
    v = params.column(0)
    return xp.mean(v)


def _bad_float_literal(bctx, params):
    v = params.column(0)
    return v * 0.5


def _bad_true_division(bctx, params):
    v = params.column(0)
    return v / 2


def _bad_builtin_sum(bctx, params):
    v = params.column(0)
    return sum(v)


def _bad_scatter_nondisjoint(bctx, params):
    xp = bctx.xp
    v = params.column(0)
    acc = xp.zeros(64, dtype=np.int64)
    xp.scatter(acc, params.column(1), v)


def _ok_scatter_disjoint(bctx, params):
    xp = bctx.xp
    v = params.column(0)
    acc = xp.zeros(64, dtype=np.int64)
    rows = xp.flatnonzero(v)
    xp.scatter(acc, rows, v[rows])


def _bad_unordered_iteration(bctx, params):
    for col in {"a", "b"}:
        bctx.add("t", bctx.all_lanes(), params.column(0), col)


def _bad_random_twin(bctx, params):
    import random

    return random.random()


# -- drift-audit fixtures: scalar/twin pairs -------------------------------

def _scalar_writes_two(ctx, key):
    ctx.write("t", key, "a", 1)
    ctx.write("t", key, "b", 2)


def _twin_writes_one(bctx, params):
    lanes = bctx.all_lanes()
    bctx.write("t", lanes, params.column(0), "a")


def _scalar_reads_b(ctx, key):
    val = ctx.read("t", key, "b")
    ctx.write("t", key, "a", val)


def _twin_reads_nothing(bctx, params):
    lanes = bctx.all_lanes()
    bctx.write("t", lanes, params.column(0), "a")


def _scalar_aborts(ctx, key):
    if ctx.read("t", key, "a") < 0:
        ctx.abort("negative")
    ctx.write("t", key, "a", 0)


def _twin_never_aborts(bctx, params):
    lanes = bctx.all_lanes()
    bctx.read_keys("t", lanes, params.column(0), "a")
    bctx.write("t", lanes, params.column(0), "a")


def _scalar_loop_rmw(ctx, keys):
    for key in keys:
        bal = ctx.read("t", key, "a")
        ctx.write("t", key, "a", bal + 1)


def _twin_no_fallback(bctx, params):
    lanes = bctx.all_lanes()
    bctx.read_keys("t", lanes, params.column(0), "a")
    bctx.write("t", lanes, params.column(0), "a")


def _scalar_plain_write(ctx, key):
    ctx.write("t", key, "a", 1)


def _twin_extra_write(bctx, params):
    lanes = bctx.all_lanes()
    bctx.write("t", lanes, params.column(0), "a")
    bctx.write("t", lanes, params.column(0), "b")


def _scalar_range_read(ctx, lo, hi):
    return ctx.range_read("t", lo, hi, "a")


def _twin_no_range(bctx, params):
    lanes = bctx.all_lanes()
    bctx.read_keys("t", lanes, params.column(0), "a")


# -- helpers ---------------------------------------------------------------

def _lint(fn):
    unit = source_unit(fn.__name__, fn)
    findings, suppressed, _ = lint_twin_unit(unit)
    return findings, suppressed


def _codes(findings):
    return [f.code for f in findings]


def _assert_single(fn, code):
    """One seeded violation -> exactly that code, spanned in this file."""
    findings, _ = _lint(fn)
    assert _codes(findings) == [code], [f.describe() for f in findings]
    finding = findings[0]
    assert finding.kind == RULES[code]
    assert finding.pass_name == KERNELLINT
    assert finding.file.endswith("test_analysis_kernellint.py")
    lines, first = inspect.getsourcelines(fn)
    assert finding.span is not None
    assert first <= finding.span[0] <= first + len(lines)
    return finding


def _drift(scalar, twin, name="proc"):
    s = source_unit(name, scalar)
    t = source_unit(f"{name}[batched]", twin)
    return drift_findings(name, s, t)


# -- backend-contract rules (KL1xx) ----------------------------------------

def test_kl101_implicit_int_conversion():
    _assert_single(_bad_implicit_int, "KL101")


def test_kl101_branch_on_device_value():
    _assert_single(_bad_branch_on_device, "KL101")


def test_kl101_host_iteration_of_device_array():
    _assert_single(_bad_iterate_device, "KL101")


def test_kl105_unmarked_readback_loop():
    _assert_single(_bad_unmarked_readback_loop, "KL105")


def test_kl105_allow_marker_suppresses():
    findings, suppressed = _lint(_ok_marked_readback_loop)
    assert findings == []
    assert suppressed == 1


def test_kl106_host_table_column_read():
    finding = _assert_single(_bad_host_table_column, "KL106")
    assert "DeviceTableView" in finding.message


def test_kl106_private_table_storage_access():
    _assert_single(_bad_private_table_storage, "KL106")


def test_kl106_allow_marker_suppresses():
    findings, suppressed = _lint(_ok_marked_host_table_column)
    assert findings == []
    assert suppressed == 1


def test_kl106_params_column_not_flagged():
    # params.column(N) is the sanctioned ParamColumns accessor, not a
    # host-side Table read
    findings, _ = _lint(_ok_scatter_disjoint)
    assert "KL106" not in _codes(findings)


def test_kl102_raw_numpy_on_device_data():
    finding = _assert_single(_bad_raw_numpy, "KL102")
    assert "np.sort" in finding.message


def test_kl102_off_protocol_xp_method():
    finding = _assert_single(_bad_off_protocol_xp, "KL102")
    assert "xp.mean" in finding.message


def test_kl103_float_literal():
    _assert_single(_bad_float_literal, "KL103")


def test_kl103_true_division():
    _assert_single(_bad_true_division, "KL103")


# -- determinism rules (KL2xx) ---------------------------------------------

def test_kl201_builtin_sum_over_device_array():
    _assert_single(_bad_builtin_sum, "KL201")


def test_kl202_scatter_index_not_provably_disjoint():
    _assert_single(_bad_scatter_nondisjoint, "KL202")


def test_kl202_disjoint_index_accepted():
    findings, _ = _lint(_ok_scatter_disjoint)
    assert findings == [], [f.describe() for f in findings]


def test_kl203_unordered_iteration_feeding_emission():
    _assert_single(_bad_unordered_iteration, "KL203")


def test_kl204_nondeterministic_source_in_twin():
    # the import and the call are each a finding
    findings, _ = _lint(_bad_random_twin)
    assert findings and set(_codes(findings)) == {"KL204"}
    for finding in findings:
        assert finding.kind == RULES["KL204"]
        assert "random" in finding.message
        assert finding.file.endswith("test_analysis_kernellint.py")


def test_unwrap_twin_peels_partial():
    import functools

    twin = functools.partial(_twin_writes_one)
    assert unwrap_twin(twin) is _twin_writes_one


# -- twin-drift rules (KL4xx) ----------------------------------------------

def test_kl401_twin_missing_write():
    findings = _drift(_scalar_writes_two, _twin_writes_one)
    assert _codes(findings) == ["KL401"]
    assert "t.b" in findings[0].message
    assert findings[0].subject == "proc[batched]"


def test_kl402_twin_missing_read():
    findings = _drift(_scalar_reads_b, _twin_reads_nothing)
    assert "KL402" in _codes(findings)
    kl402 = next(f for f in findings if f.code == "KL402")
    assert "t.b" in kl402.message


def test_kl403_twin_missing_abort():
    findings = _drift(_scalar_aborts, _twin_never_aborts)
    assert _codes(findings) == ["KL403"]


def test_kl404_twin_missing_fallback_for_loop_rmw():
    findings = _drift(_scalar_loop_rmw, _twin_no_fallback)
    assert _codes(findings) == ["KL404"]
    assert "t.a" in findings[0].message


def test_kl405_twin_extra_write():
    findings = _drift(_scalar_plain_write, _twin_extra_write)
    assert _codes(findings) == ["KL405"]
    assert "t.b" in findings[0].message


def test_kl406_twin_missing_range_predicate():
    findings = _drift(_scalar_range_read, _twin_no_range)
    assert _codes(findings) == ["KL406"]


def test_matched_pair_has_no_drift():
    findings = _drift(_scalar_plain_write, _twin_writes_one)
    assert findings == [], [f.describe() for f in findings]


# -- registry-level driver -------------------------------------------------

def _seeded_registry():
    registry = ProcedureRegistry()
    registry.register("bad", _scalar_plain_write)
    registry.register_batched("bad", _bad_implicit_int)
    return registry


def test_lint_registry_twins_reports_seeded_violation():
    findings, twins, suppressed = lint_registry_twins(_seeded_registry())
    assert twins == 1
    codes = _codes(findings)
    assert "KL101" in codes
    # the seeded twin also drifts from its scalar (no writes at all)
    assert "KL401" in codes


def test_run_kernellint_exits_nonzero_on_seeded_violation(monkeypatch, capsys):
    import types

    from repro.analysis import passes

    setup = types.SimpleNamespace(registry=_seeded_registry())
    monkeypatch.setattr(passes, "build_workload", lambda name, seed=7: setup)
    rc = cli.main(["kernellint", "--workload", "tpcc"])
    assert rc == cli.EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "KL101" in out


# -- committed tree must lint clean ----------------------------------------

@pytest.mark.parametrize("workload", ["tpcc", "ycsb", "smallbank"])
def test_committed_twins_lint_clean(workload):
    result = run_kernellint(workload)
    assert result.clean, result.report.render()
    assert result.procedures_checked > 0


def test_committed_tpcc_sanctioned_readbacks_are_marked():
    # the two tpcc host-probe sites are suppressed by allow markers, not
    # invisible to the rule
    result = run_kernellint("tpcc")
    assert result.report.suppressed == 2


def test_run_pass_all_includes_kernellint():
    results = run_pass("kernellint", workload="smallbank")
    assert [r.pass_name for r in results] == ["kernellint"]


def test_cli_clean_exit_on_committed_tree(capsys):
    rc = cli.main(["kernellint", "--workload", "smallbank"])
    assert rc == cli.EXIT_CLEAN
    assert "kernellint" in capsys.readouterr().out


# -- emitters --------------------------------------------------------------

def test_json_and_sarif_outputs(tmp_path, monkeypatch, capsys):
    import types

    from repro.analysis import passes

    setup = types.SimpleNamespace(registry=_seeded_registry())
    monkeypatch.setattr(passes, "build_workload", lambda name, seed=7: setup)
    json_path = tmp_path / "findings.json"
    sarif_path = tmp_path / "findings.sarif"
    rc = cli.main([
        "kernellint", "--workload", "tpcc",
        "--json-out", str(json_path),
        "--sarif-out", str(sarif_path),
    ])
    assert rc == cli.EXIT_FINDINGS

    doc = json.loads(json_path.read_text())
    assert doc["runs"][0]["pass"] == "kernellint"
    codes = {f.get("code") for f in doc["runs"][0]["findings"]}
    assert "KL101" in codes

    sarif = json.loads(sarif_path.read_text())
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(RULES) == rule_ids
    result_ids = {r["ruleId"] for r in run["results"]}
    assert "KL101" in result_ids
    located = [r for r in run["results"] if "locations" in r]
    assert located, "expected at least one located SARIF result"
    loc = located[0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith(".py")
    assert loc["region"]["startLine"] >= 1
