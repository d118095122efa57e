"""The paper's experiments as spec rows: every smoke case holds its
spec's who-wins shape and renders, each named claim is one the shape
predicate really enforces, and the committed ``BENCH_paper.json`` holds
every shape at its own scale."""

from __future__ import annotations

import pathlib

import pytest

from helpers import SMOKE, TINY, smoke, violates
from repro.bench import format_table, paper, scaled, steady_state_run, tpcc_bench
from repro.errors import BenchmarkError

ARTIFACT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_paper.json"


@pytest.mark.parametrize("case", SMOKE)
def test_smoke_case_holds_its_shape_and_renders(case):
    """Smoke records -> the spec's shape predicate -> the formatter
    output names the title, every measured column and every key label."""
    name, scale, _, _ = SMOKE[case]
    spec = paper.SPECS[name]
    records = smoke(case)
    spec.shape(records, scale)
    text = paper.format_records(spec, list(records.items()))
    assert spec.title in text
    shown = [*spec.rows, *spec.cols, *([spec.block] if spec.block else [])]
    axes = [a for a, _ in spec.axes]
    for key, values in records.items():
        assert all(column in text for column in values)
        assert all(paper._label(key[axes.index(a)]) in text for a in shown)


def test_every_spec_has_a_smoke_case():
    assert {name for name, *_ in SMOKE.values()} == set(paper.SPECS)


def test_committed_artifact_holds_every_shape():
    meta, results = paper.load(str(ARTIFACT))
    assert set(meta) == {"scale", "rounds", "seed"}
    assert list(results) == list(paper.SPECS)
    for name, records in results.items():
        spec = paper.SPECS[name]
        assert [key for key, _ in records] == paper.keys(spec), name
        spec.shape(dict(records), meta["scale"])


def test_artifact_round_trips(tmp_path):
    results = {
        name: list(smoke(case).items())
        for case, (name, *_) in SMOKE.items()
        if "@" not in case
    }
    path = tmp_path / "paper.json"
    paper.write(str(path), results, TINY, 2)
    meta, back = paper.load(str(path))
    assert meta == {"scale": TINY, "rounds": 2, "seed": paper.SEED}
    assert back == results


def test_fig7_cell_is_independent_of_the_cells_before_it():
    """Each cell builds its own database and generator: a cell run after
    another batch size equals the same cell run alone."""
    axes = dict(data_size=(10_000,), workload=("a",))
    alone = paper.run("fig7", 64.0, 2, batch=(2**14,), **axes)
    after = paper.run("fig7", 64.0, 2, batch=(2**10, 2**14), **axes)
    assert alone == after[1:]


def test_unknown_experiment_and_axis_rejected():
    with pytest.raises(BenchmarkError):
        paper.run("tableX")
    with pytest.raises(BenchmarkError):
        paper.run("table5", warehouses=(8,))


def mtps(case: str, key: tuple) -> float:
    return smoke(case)[key]["mtps"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["x", 10000.0]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bb" in lines[2]
        assert "10,000" in text


class TestCommon:
    def test_scaled(self):
        assert scaled(16384, 8.0) == 2048
        assert scaled(10, 100.0, minimum=3) == 3

    def test_tpcc_bench_scales_together(self):
        bench = tpcc_bench(2, scale=16.0)
        assert bench.batch_size == 1024
        assert bench.database.table("item").num_rows == 6250


class TestTable2:
    def test_shape_ltpg_beats_gacco_on_mixed_and_gacco_wins_payment(self):
        ltpg = mtps("table2@16", (0, 8, "ltpg"))
        violates("table2@16", (0, 8, "gacco"), "mtps", 0.5 * ltpg)
        violates("table2@16", (50, 8, "ltpg"), "mtps", 0.5 * mtps("table2@16", (50, 8, "gacco")))

    def test_gpu_systems_beat_cpu_systems_on_mixed(self):
        violates("table2", (50, 8, "aria"), "mtps", 2 * mtps("table2", (50, 8, "ltpg")))
        violates("table2", (50, 8, "bohm"), "mtps", 2 * mtps("table2", (50, 8, "aria")))


class TestTable3:
    def test_throughput_improves_with_batch_size(self):
        small = mtps("table3", (50, 8, 2**8))
        violates("table3", (50, 8, 2**14), "mtps", 0.5 * small)


class TestTable4:
    def test_ltpg_latency_below_gacco(self):
        ltpg = smoke("table4")[(8, 8_192, "ltpg")]
        violates("table4", (8, 8_192, "gacco"), "latency_us", ltpg["latency_us"])
        violates("table4", (8, 8_192, "gacco"), "transfer_us", ltpg["transfer_us"])


class TestTable5:
    def test_copy_cost_grows_with_batch(self):
        small = smoke("table5")[(1_024,)]["rwset_us"]
        violates("table5", (65_536,), "rwset_us", small)


class TestTable6:
    def test_optimizations_lift_payment_commit_rate(self):
        off = smoke("table6")[(8, 16_384, False)]
        violates("table6", (8, 16_384, True), "rate_payment", 2 * off["rate_payment"])
        violates("table6", (8, 16_384, True), "rate_neworder", off["rate_neworder"] + 0.3)


class TestTable7:
    def test_large_buckets_cut_marking_latency(self):
        std = smoke("table7")[(512, 512, 32, 1)]
        violates("table7", (512, 512, 32, 32), "mark_us", std["mark_us"])
        violates("table7", (512, 512, 32, 32), "read_us", 2 * std["read_us"])

    def test_contention_grows_with_smaller_hash(self):
        cold = smoke("table7")[(1024, 1024, 512, 1)]
        violates("table7", (1024, 1024, 1, 1), "mark_us", cold["mark_us"])


class TestTable8:
    def test_large_fraction_is_small_and_flat(self):
        violates("table8", (64,), "large_pct", 50.0)
        violates("table8", (64,), "standard_pct", 50.0)


class TestTable9:
    def test_unified_memory_inflates_phases(self):
        zero_copy = smoke("table9")[(32,)]["execute_us"]
        violates("table9", (2048,), "execute_us", 1.5 * zero_copy)
        violates("table9", (2048,), "mode", "zero_copy")


class TestFig6:
    def test_commit_rate_band_and_latency_growth(self):
        small = smoke("fig6a")[(2**8,)]["latency_us"]
        violates("fig6a", (2**16,), "latency_us", small)
        violates("fig6a", (2**16,), "commit_rate", 0.1)

    def test_each_optimization_step_helps(self):
        base = mtps("fig6b", ("baseline",))
        violates("fig6b", ("+high-contention",), "mtps", base)
        violates("fig6b", ("+hash-buckets",), "mtps", base)


class TestFig7:
    def test_read_only_beats_scans(self):
        c = mtps("fig7", (10_000, "c", 2**10))
        violates("fig7", (10_000, "e", 2**10), "mtps", c)

    def test_update_heavy_below_read_heavy(self):
        b = mtps("fig7", (10_000, "b", 2**10))
        violates("fig7", (10_000, "a", 2**10), "mtps", 2 * b)


class TestRunnerValidation:
    def test_zero_batches_rejected(self):

        bench = tpcc_bench(2, scale=TINY)
        with pytest.raises(BenchmarkError):
            steady_state_run(bench.engine(), bench.generator, 32, 0)


class TestWallclockSmallBatch:
    def test_section_times_both_paths_at_every_lane_count(self):
        from repro.bench import wallclock

        section = wallclock.measure_small_batch(
            lanes=(1, 8), rounds=1, scale=TINY, warehouses=2
        )
        assert section["lanes"] == [1, 8]
        ms = section["ms_per_batch"]
        assert set(ms) == {"per_transaction", "batched"}
        for path in ms:
            assert set(ms[path]) == {"1", "8"}
            assert all(v > 0 for v in ms[path].values())
        assert set(section["speedup_batched"]) == {"1", "8"}
        result = wallclock.WallclockResult(small_batch=section)
        assert result.to_json()["small_batch"] is section
        assert "per-transaction (ms)" in wallclock.format_small_batch(section)

    def test_refresh_rewrites_only_its_own_section(self, tmp_path, monkeypatch):
        import json

        from repro.bench import wallclock

        result = wallclock.WallclockResult(
            meta={"scale": 4.0, "seed": 11, "rounds": 8},
            seconds={"columnar": {1024: {"execute": 0.125, "total": 0.5}}},
            small_batch={"stale": True},
        )
        path = tmp_path / "wallclock.json"
        result.write(str(path))
        before = json.loads(path.read_text())
        seen = {}

        def fake(**kwargs):
            seen.update(kwargs)
            return {"lanes": [1]}

        monkeypatch.setattr(wallclock, "measure_small_batch", fake)
        assert wallclock.refresh_small_batch(str(path), rounds=3) == {"lanes": [1]}
        assert seen == {"rounds": 3, "scale": 4.0, "seed": 11}
        after = json.loads(path.read_text())
        assert after.pop("small_batch") == {"lanes": [1]}
        before.pop("small_batch")
        assert after == before
        # same serialisation as write(): an untouched section is
        # byte-identical, so the artifact's diff is the section alone
        result.small_batch = {"lanes": [1]}
        expected = tmp_path / "expected.json"
        result.write(str(expected))
        assert path.read_text() == expected.read_text()
