"""Bench harnesses: smoke every experiment at tiny scale and assert the
paper's qualitative shapes."""

from __future__ import annotations

import pytest

from helpers import TINY, tiny_fig6b, tiny_table2, tiny_table4
from repro.bench import (
    fig6,
    fig7,
    reporting,
    table2,
    table3,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.bench.common import scaled, tpcc_bench
from repro.errors import BenchmarkError


class TestReporting:
    def test_format_table_alignment(self):
        text = reporting.format_table("T", ["a", "bb"], [[1, 2.5], ["x", 10000.0]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bb" in lines[2]
        assert "10,000" in text

    def test_units(self):
        assert reporting.mtps(2e6) == 2.0
        assert reporting.us(1500.0) == 1.5


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
        # GaccO's payment-only advantage comes from hot-row contention,
        # which needs a reasonable payments-per-warehouse ratio: use a
        # moderate scale here rather than the tiny smoke scale.
        result = table2.run(
            scale=16.0,
            rounds=2,
            systems=("ltpg", "gacco", "calvin"),
            configs=((50, 8), (0, 8)),
        )
        assert result.mtps[("ltpg", 50, 8)] > result.mtps[("calvin", 50, 8)]
        assert result.mtps[("gacco", 0, 8)] > result.mtps[("ltpg", 0, 8)]
        text = result.format()
        assert "ltpg" in text and "50-8" in text

    def test_gpu_systems_beat_cpu_systems_on_mixed(self):
        result = tiny_table2()
        assert result.mtps[("ltpg", 50, 8)] > result.mtps[("aria", 50, 8)]
        assert result.mtps[("aria", 50, 8)] > result.mtps[("bohm", 50, 8)]


class TestTable3:
    def test_throughput_improves_with_batch_size(self):
        result = table3.run(
            scale=TINY,
            rounds=2,
            batch_sizes=(2**8, 2**14),
            configs=((50, 8),),
        )
        small = result.mtps[(2**8, 50, 8)]
        large = result.mtps[(2**14, 50, 8)]
        assert large > small
        assert "2^14" in result.format()


class TestTable4:
    def test_ltpg_latency_below_gacco(self):
        result = tiny_table4()
        lat_l, xfer_l = result.cells[("ltpg", 8, 8_192)]
        lat_g, xfer_g = result.cells[("gacco", 8, 8_192)]
        assert lat_l < lat_g
        assert xfer_l < xfer_g


class TestTable5:
    def test_copy_cost_grows_with_batch(self):
        result = table5.run(scale=TINY, rounds=2, batch_sizes=(1_024, 65_536))
        assert result.rwset_us[65_536] > result.rwset_us[1_024]


class TestTable6:
    def test_optimizations_lift_payment_commit_rate(self):
        result = table6.run(scale=TINY, rounds=2, configs=((8, 16_384),))
        with_opt = result.cells[(8, 16_384, True)]
        without = result.cells[(8, 16_384, False)]
        assert with_opt.rate_payment > 4 * without.rate_payment
        assert abs(with_opt.rate_neworder - without.rate_neworder) < 0.2
        assert with_opt.rate_total > without.rate_total


class TestTable7:
    def test_large_buckets_cut_marking_latency(self):
        result = table7.run()
        for grid, block in table7.GEOMETRIES:
            for h in table7.HASH_SIZES:
                std = result.cells[(grid, block, h, 1)]
                big = result.cells[(grid, block, h, 32)]
                assert big.mark_us < std.mark_us
                # reading is insensitive to bucket size
                assert big.read_us == pytest.approx(std.read_us)

    def test_contention_grows_with_smaller_hash(self):
        result = table7.run()
        hot = result.cells[(1024, 1024, 1, 1)]
        cold = result.cells[(1024, 1024, 512, 1)]
        assert hot.mark_us > cold.mark_us


class TestTable8:
    def test_large_fraction_is_small_and_flat(self):
        result = table8.run(scale=TINY, warehouses=(8, 64))
        large_8, std_8 = result.pct[8]
        large_64, _ = result.pct[64]
        assert large_8 + std_8 == pytest.approx(100.0)
        assert large_8 < 10.0
        assert large_64 < 10.0


class TestTable9:
    def test_unified_memory_inflates_phases(self):
        result = table9.run(scale=64.0, rounds=1)
        zc = result.phases[table9.ZERO_COPY_SCALES[0]]
        um = result.phases[table9.UNIFIED_SCALES[-1]]
        assert result.modes[32] == "zero_copy"
        assert result.modes[2048] == "unified"
        assert um["execute"] > zc["execute"]


class TestFig6:
    def test_commit_rate_band_and_latency_growth(self):
        # spread the batch sizes: at smoke scale adjacent sizes sit in
        # the fixed-cost-dominated regime where latencies nearly tie
        result = fig6.run_a(scale=TINY, rounds=2, batch_sizes=(2**8, 2**16))
        assert result.latency_us[2**16] > result.latency_us[2**8]
        assert 0.0 < result.commit_rate[2**16] <= 1.0

    def test_each_optimization_step_helps(self):
        result = tiny_fig6b()
        base = result.mtps["baseline"]
        assert result.mtps["+high-contention"] > base
        assert result.mtps["+hash-buckets"] >= result.mtps["+high-contention"] * 0.9
        assert "vs baseline" in result.format()


class TestFig7:
    def test_read_only_beats_scans(self):
        result = fig7.run(
            scale=TINY,
            rounds=2,
            workloads=("c", "e"),
            batch_sizes=(2**10,),
            data_sizes=(10_000,),
        )
        c = result.mtps[("c", 2**10, 10_000)]
        e = result.mtps[("e", 2**10, 10_000)]
        assert c > e

    def test_update_heavy_below_read_heavy(self):
        result = fig7.run(
            scale=TINY,
            rounds=2,
            workloads=("a", "b"),
            batch_sizes=(2**10,),
            data_sizes=(10_000,),
        )
        assert result.mtps[("b", 2**10, 10_000)] >= result.mtps[("a", 2**10, 10_000)]


class TestRunnerValidation:
    def test_zero_batches_rejected(self):
        from repro.bench.runner import steady_state_run

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
