"""End-to-end analysis runs: detlint is clean on every shipped workload
and the CLI honors its exit-code contract."""

from __future__ import annotations

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main, run_pass


@pytest.mark.analysis
@pytest.mark.parametrize("workload", ["tpcc", "ycsb", "smallbank"])
def test_run_all_passes_clean(workload):
    results = run_pass("all", workload=workload, batch_size=256)
    assert [r.pass_name for r in results] == ["detlint"]
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
    assert main(["detlint", "--batch-size", "0"]) == EXIT_USAGE
    assert main(["nosuchpass"]) == EXIT_USAGE
    assert main(["racecheck"]) == EXIT_USAGE  # deleted, see ARCHITECTURE §11
    capsys.readouterr()


def test_cli_findings_exit_one(capsys, monkeypatch):
    """Seed a nondeterministic procedure into the workload registry: the
    CLI must exit 1 and name the offender."""
    import repro.analysis.cli as cli_mod
    from repro.analysis.workload import build_workload

    def tainted(name, seed=7):
        setup = build_workload(name, seed=seed)

        @setup.registry.register("roulette")
        def roulette(ctx, key):
            import random

            ctx.write("accounts", key, "balance", random.randint(0, 9))

        return setup

    monkeypatch.setattr(cli_mod, "build_workload", tainted)
    code = main(["detlint", "--workload", "smallbank"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "roulette" in out
