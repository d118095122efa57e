"""Command-line entry points: the bench driver and the validator."""

from __future__ import annotations

import pytest

from repro import validate
from repro.bench.__main__ import main as bench_main


class TestBenchCli:
    def test_table7_runs(self, capsys):
        rc = bench_main(["table7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table VII" in out
        assert "wall]" in out

    def test_table8_with_scale(self, capsys):
        rc = bench_main(["table8", "--scale", "64"])
        assert rc == 0
        assert "memory occupancy" in capsys.readouterr().out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            bench_main(["tableX"])

    def test_ablation_entry(self, capsys):
        rc = bench_main(["ablations", "--scale", "64", "--rounds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "adaptive warp division" in out
        assert "retry delay" in out


class TestValidator:
    def test_full_validation_passes(self, capsys):
        rc = validate.main([])
        assert rc == 0
        out = capsys.readouterr().out
        # determinism, recovery, and serial replay on three workloads
        assert out.count("[PASS]") == 5
        assert "all checks passed" in out

    def test_report_formatting_on_failure(self):
        report = validate.ValidationReport()
        report.record("a", True)
        report.record("b", False, "broken")
        assert not report.passed
        text = report.format()
        assert "[FAIL] b (broken)" in text
        assert "VALIDATION FAILED" in text

    def test_individual_checks(self):
        report = validate.ValidationReport()
        validate.check_determinism(report, seed=3)
        validate.check_serializability(report, seed=4)
        assert report.passed
