"""Rendering of every spec's records (regression guard for the CLI
output the EXPERIMENTS.md tables are diffed against): each layout of the
pivot formatter — a rows x cols grid, one line per key, one line per
measured column, one table per block — on a smoke case."""

from __future__ import annotations

from helpers import SMOKE, smoke
from repro.bench import paper


def rendered(case: str) -> str:
    name = SMOKE[case][0]
    return paper.format_records(paper.SPECS[name], list(smoke(case).items()))


class TestTableFormats:
    def test_table2_partial_configs(self):
        text = rendered("table2")
        header = text.splitlines()[2]
        assert "system" in header and "50/8" in header and "ltpg" in text
        assert "100/8" not in text  # absent configs stay out
        assert "cell = mtps" in text

    def test_table3(self):
        header = rendered("table3").splitlines()[2]
        assert header.split() == ["batch", "50/8"]

    def test_table4(self):
        text = rendered("table4")
        ltpg = smoke("table4")[(8, 8192, "ltpg")]
        assert "8/8192" in text
        assert f"{ltpg['latency_us']:.1f}, {ltpg['transfer_us']:.1f}" in text
        assert "cell = latency_us, transfer_us" in text

    def test_table5(self):
        lines = rendered("table5").splitlines()
        assert lines[2].split() == ["metric", "1024", "65536"]
        assert lines[4].split()[0] == "rwset_us"

    def test_table6(self):
        lines = rendered("table6").splitlines()
        assert lines[2].split()[:2] == ["warehouses/batch/optimized", "committed_total"]
        assert [line.split()[0] for line in lines[4:]] == ["8/16384/True", "8/16384/False"]

    def test_table8(self):
        lines = rendered("table8").splitlines()
        assert [line.split()[0] for line in lines[4:]] == ["large_pct", "standard_pct"]
        assert lines[2].split() == ["metric", "8", "64"]

    def test_table9(self):
        text = rendered("table9")
        assert "zero_copy" in text and "unified" in text and "execute_us" in text

    def test_fig6(self):
        assert "latency_us" in rendered("fig6a")
        assert [line.split()[0] for line in rendered("fig6b").splitlines()[4:]] == list(
            paper.STEPS
        )

    def test_fig7(self):
        assert rendered("fig7").startswith(
            "Fig 7: YCSB throughput (10^6 TXs/s), Zipf alpha 2.5 — data_size 10000"
        )

    def test_fullmix(self):
        text = rendered("fullmix")
        assert "neworder_rate" in text and "retries" in text
        assert text.splitlines()[2].split() == ["metric", "value"]

    def test_sweep(self):
        header = rendered("sweep").splitlines()[2]
        assert header.split() == ["hot", "True", "False"]

    def test_ablation(self):
        text = rendered("ablations")
        for study in paper.ABLATIONS:
            assert f"Ablation — study {study}" in text
        assert text.count("variant") == len(paper.ABLATIONS)

    def test_calibration_worst_ratio(self):
        [(key, v)] = smoke("calibration").items()
        assert key == ("table2", (50, 8, "gacco"))
        assert v["ratio"] == v["measured"] / v["paper"]
        assert "table2/50/8/gacco" in rendered("calibration")
