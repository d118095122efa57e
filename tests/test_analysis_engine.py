"""End-to-end analysis runs: the sanitized LTPG engine is clean on the
bank fixture and on the real workloads, the CLI honors its exit-code
contract, and sanitize=False keeps the hot path uninstrumented."""

from __future__ import annotations

import pytest

from helpers import bank_engine, tids, txn

from repro.analysis import MEMCHECK, AccessKind
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.analysis.passes import run_memcheck, run_pass, run_racecheck
from repro.analysis.workload import build_workload
from repro.core import LTPGConfig
from repro.txn.batch import BatchScheduler


def test_engine_sanitizer_disabled_by_default():
    engine, _, _ = bank_engine()
    assert engine.sanitizer is None
    assert engine.device.sanitizer is None


def test_sanitized_bank_batch_is_clean():
    engine, _, _ = bank_engine(config=LTPGConfig(batch_size=32, sanitize=True))
    assert engine.sanitizer is not None
    batch = [txn("transfer", 2 * i, 2 * i + 1, 5) for i in range(8)]
    batch += [txn("deposit", 3, 7) for _ in range(8)]
    batch += [txn("audit", 0, 1) for _ in range(8)]
    tids(batch)
    result = engine.run_batch(batch)
    assert result.committed
    assert engine.sanitizer.clean, engine.sanitizer.report.render()
    assert engine.sanitizer.accesses_logged > 0
    assert engine.sanitizer.kernels_scanned >= 3  # execute/conflict/writeback


def test_sanitized_conflicting_batch_is_clean():
    """Conflicting transactions abort deterministically; the surviving
    writes must not race."""
    engine, _, _ = bank_engine(config=LTPGConfig(batch_size=32, sanitize=True))
    batch = [txn("transfer", 0, 1, 5) for _ in range(16)]
    tids(batch)
    result = engine.run_batch(batch)
    assert result.committed and result.aborted
    assert engine.sanitizer.clean, engine.sanitizer.report.render()


def test_engine_memcheck_bounds_the_conflict_log_minima():
    """Memcheck on the engine path is a bounds check on the conflict
    log's minima buffers: a sanitized TPC-C batch registers both at
    their minima sizes, and an access one past the end is caught."""
    setup = build_workload("tpcc")
    engine = setup.engine(batch_size=64)
    scheduler = BatchScheduler(64)
    scheduler.admit(setup.generator.make_batch(64))
    engine.process(scheduler, max_batches=1)
    san = engine.sanitizer
    assert san.clean, san.report.render()
    log = engine.conflict_log
    minima = {
        "conflict_log.read": log._min_read.size,
        "conflict_log.write": log._min_write.size,
    }
    assert {name: san._buffers[name].size for name in minima} == minima
    size = minima["conflict_log.write"]
    san.begin_kernel("probe")
    san.record("conflict_log.write", [size], 0, AccessKind.WRITE, atomic=True)
    san.end_kernel()
    oob = san.findings_for(MEMCHECK)
    assert [(f.kind, f.subject, f.index) for f in oob] == [
        ("out-of-bounds", "conflict_log.write", size)
    ]


@pytest.mark.analysis
@pytest.mark.parametrize("workload", ["tpcc", "ycsb"])
def test_racecheck_phase_kernels_clean(workload):
    result = run_racecheck(workload, batches=2, batch_size=256)
    assert result.clean, result.render()
    assert {"execute", "conflict", "writeback"} <= set(result.kernels)
    assert result.accesses_logged > 0


@pytest.mark.analysis
@pytest.mark.parametrize("workload", ["tpcc", "smallbank"])
def test_memcheck_clean(workload):
    result = run_memcheck(workload, batches=2, batch_size=256)
    assert result.clean, result.render()


@pytest.mark.analysis
def test_run_all_passes_clean_on_ycsb():
    results = run_pass("all", workload="ycsb", batches=1, batch_size=256)
    assert len(results) == 4
    for result in results:
        assert result.clean, result.render()


def test_run_pass_rejects_unknown_pass():
    with pytest.raises(ValueError):
        run_pass("valgrind")


@pytest.mark.analysis
def test_cli_clean_run_exits_zero(capsys):
    code = main(["detlint", "--workload", "smallbank"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "clean" in out


def test_cli_usage_errors_exit_two(capsys):
    assert main(["racecheck", "--batches", "0"]) == EXIT_USAGE
    assert main(["nosuchpass"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_findings_exit_one(capsys, monkeypatch):
    """Seed a nondeterministic procedure into the workload registry: the
    CLI must exit 1 and name the offender."""
    import repro.analysis.passes as passes_mod
    from repro.analysis.workload import build_workload

    def tainted(name, seed=7):
        setup = build_workload(name, seed=seed)

        @setup.registry.register("roulette")
        def roulette(ctx, key):
            import random

            ctx.write("accounts", key, "balance", random.randint(0, 9))

        return setup

    monkeypatch.setattr(passes_mod, "build_workload", tainted)
    code = main(["detlint", "--workload", "smallbank"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "roulette" in out
