"""Core components: hotspot detection, conflict log, split flags,
delayed updates, memory modes, config, stats."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import build_bank
from repro.core import (
    ConflictLog,
    DelayedUpdater,
    FlagGroups,
    HotspotDetector,
    LTPGConfig,
    MemoryMode,
    NO_TID,
    bucket_size_for,
    resolve_memory_mode,
)
from repro.core.stats import BatchStats, RunStats
from repro.errors import ConfigError, StorageError, TransactionError
from repro.gpusim import Device, DeviceConfig, KernelContext, LaunchGeometry
from repro.storage import Database, make_schema


def make_db(rows: int = 100) -> Database:
    db = Database()
    t = db.create_table(make_schema("t", "id", "a", "b"))
    t.bulk_load(np.arange(rows), {"a": np.zeros(rows, dtype=np.int64)})
    return db


class TestHotspot:
    def test_bucket_size_formula(self):
        assert bucket_size_for(0.5) == 1
        assert bucket_size_for(1.0) == 1
        assert bucket_size_for(1.01) == 32
        assert bucket_size_for(33.0) == 64
        assert bucket_size_for(2048.0) == 2048

    def test_detector_measures_frequency(self):
        db = make_db(rows=10)
        det = HotspotDetector(db)
        heats = det.measure({0: 50})
        assert heats[0].frequency == 5.0
        assert heats[0].bucket_size == 32
        assert heats[0].is_hot

    def test_cold_table_standard_bucket(self):
        db = make_db(rows=1000)
        heats = HotspotDetector(db).measure({0: 10})
        assert heats[0].bucket_size == 1
        assert not heats[0].is_hot

    def test_pre_marked_table_stays_hot(self):
        db = make_db(rows=1000)
        det = HotspotDetector(db, pre_marked=frozenset({"t"}))
        heats = det.measure({0: 1})
        assert heats[0].bucket_size == 32


class TestFlagGroups:
    def test_default_single_group(self):
        db = make_db()
        flags = FlagGroups(db)
        assert flags.num_groups(0) == 1
        assert flags.group_of(0, "a") == 0
        assert flags.group_of(0, "b") == 0

    def test_split_column_gets_own_group(self):
        db = make_db()
        flags = FlagGroups(db, frozenset({("t", "a")}))
        assert flags.num_groups(0) == 2
        assert flags.group_of(0, "a") == 1
        assert flags.group_of(0, "b") == 0

    def test_disabled_splitting(self):
        db = make_db()
        flags = FlagGroups(db, frozenset({("t", "a")}), enabled=False)
        assert flags.num_groups(0) == 1
        assert flags.group_of(0, "a") == 0

    def test_unknown_column_rejected(self):
        db = make_db()
        with pytest.raises(StorageError):
            FlagGroups(db, frozenset({("t", "zzz")}))

    def test_deterministic_group_assignment(self):
        db = make_db()
        f1 = FlagGroups(db, frozenset({("t", "a"), ("t", "b")}))
        f2 = FlagGroups(db, frozenset({("t", "b"), ("t", "a")}))
        assert f1.group_of(0, "a") == f2.group_of(0, "a")
        assert f1.split_column_count() == 2


class TestConflictLog:
    def make_log(self, rows=100, split=frozenset()):
        db = make_db(rows)
        flags = FlagGroups(db, split)
        log = ConflictLog(db, flags)
        heats = HotspotDetector(db).measure({0: rows * 2})  # hot
        log.begin_batch(heats)
        return log, db

    def arr(self, *vals):
        return np.asarray(vals, dtype=np.int64)

    def test_register_and_query_minima(self):
        log, db = self.make_log()
        keys = log.encode(self.arr(0, 0, 0), self.arr(5, 5, 7), self.arr(0, 0, 0))
        log.register_writes(keys, self.arr(9, 3, 4), self.arr(0, 0, 0))
        assert list(log.min_write(keys)) == [3, 3, 4]
        assert log.min_read(keys)[0] == NO_TID

    def test_end_batch_resets(self):
        log, db = self.make_log()
        keys = log.encode(self.arr(0), self.arr(1), self.arr(0))
        log.register_reads(keys, self.arr(5), self.arr(0))
        log.end_batch()
        log.begin_batch(HotspotDetector(db).measure({0: 1}))
        assert log.min_read(keys)[0] == NO_TID

    def test_insert_winner_is_min_tid(self):
        log, _ = self.make_log()
        log.register_inserts(self.arr(0, 0, 0), self.arr(42, 42, 7), self.arr(9, 2, 5))
        winners = log.insert_winners(self.arr(0, 0, 0), self.arr(42, 7, 999))
        assert list(winners) == [2, 5, NO_TID]

    def test_split_groups_do_not_collide(self):
        log, _ = self.make_log(split=frozenset({("t", "a")}))
        k_a = log.encode(self.arr(0), self.arr(5), self.arr(1))
        k_default = log.encode(self.arr(0), self.arr(5), self.arr(0))
        assert k_a[0] != k_default[0]
        log.register_writes(k_a, self.arr(1), self.arr(0))
        assert log.min_write(k_default)[0] == NO_TID

    def test_contention_recorded_with_bucket_scaling(self):
        log, _ = self.make_log(rows=4)  # tiny: very hot
        cfg = DeviceConfig()
        geometry = LaunchGeometry.for_threads(64)
        ctx_std = KernelContext("k", geometry, cfg)
        ctx_big = KernelContext("k", geometry, cfg)
        keys = log.encode(
            np.zeros(64, dtype=np.int64),
            np.zeros(64, dtype=np.int64),
            np.zeros(64, dtype=np.int64),
        )
        tids = np.arange(64, dtype=np.int64)
        tables = np.zeros(64, dtype=np.int64)
        log.dynamic_buckets = False
        log.register_writes(keys, tids, tables, ctx_std)
        log.dynamic_buckets = True
        log.register_writes(keys, tids, tables, ctx_big)
        assert ctx_big.stats.atomic_max_chain < ctx_std.stats.atomic_max_chain

    def test_memory_report_hot_fraction_small_for_big_tables(self):
        db = make_db(rows=10_000)
        flags = FlagGroups(db)
        log = ConflictLog(db, flags)
        # two tables: add a tiny hot one
        hot = db.create_table(make_schema("hot", "id", "x"))
        for k in range(4):
            hot.insert(k)
        log = ConflictLog(db, FlagGroups(db))
        heats = HotspotDetector(db).measure({0: 100, 1: 5000})
        log.begin_batch(heats)
        standard, large = log.memory_report()
        assert large > 0
        assert standard > 0
        assert large / (standard + large) < 0.6

    def test_misaligned_arrays_rejected(self):
        log, _ = self.make_log()
        with pytest.raises(TransactionError):
            log.register_reads(self.arr(1, 2), self.arr(1), self.arr(0, 0))


class TestDelayedUpdater:
    def test_apply_merges_deltas(self):
        db, _ = build_bank(accounts=4)
        upd = DelayedUpdater(db, frozenset({("accounts", "balance")}))
        assert upd.is_delayed(0, "balance")
        assert not upd.is_delayed(0, "flags")
        n = upd.apply([(0, 1, "balance", 5), (0, 1, "balance", 7), (0, 2, "balance", 1)])
        assert n == 2
        assert db.table("accounts").read(1, "balance") == 1012
        assert db.table("accounts").read(2, "balance") == 1001

    def test_disabled_updater_has_no_columns(self):
        db, _ = build_bank(accounts=4)
        upd = DelayedUpdater(db, frozenset({("accounts", "balance")}), enabled=False)
        assert not upd.is_delayed(0, "balance")

    def test_apply_records_costs(self):
        db, _ = build_bank(accounts=4)
        upd = DelayedUpdater(db, frozenset({("accounts", "balance")}))
        ctx = KernelContext("k", LaunchGeometry.for_threads(4), DeviceConfig())
        upd.apply([(0, 1, "balance", 5)], ctx)
        assert ctx.stats.global_writes == 1
        assert ctx.stats.instructions > 0

    def test_apply_empty(self):
        db, _ = build_bank(accounts=4)
        upd = DelayedUpdater(db, frozenset())
        assert upd.apply([]) == 0


class TestMemoryModes:
    def test_auto_picks_device_when_fits(self):
        db, _ = build_bank(accounts=8)
        plan = resolve_memory_mode(LTPGConfig(), db, Device())
        assert plan.mode is MemoryMode.DEVICE
        assert plan.snapshot_resident

    def test_auto_picks_unified_when_too_big(self):
        db, _ = build_bank(accounts=1024)
        small = dataclasses.replace(DeviceConfig(), device_memory_bytes=4096)
        plan = resolve_memory_mode(LTPGConfig(), db, Device(small))
        assert plan.mode is MemoryMode.UNIFIED
        assert not plan.snapshot_resident

    def test_explicit_mode_honored(self):
        db, _ = build_bank(accounts=8)
        config = LTPGConfig(memory_mode=MemoryMode.ZERO_COPY)
        plan = resolve_memory_mode(config, db, Device())
        assert plan.mode is MemoryMode.ZERO_COPY


class TestConfig:
    def test_effective_retry_delay(self):
        assert LTPGConfig().effective_retry_delay == 1
        assert LTPGConfig(pipelined=True).effective_retry_delay == 2
        assert LTPGConfig(retry_delay_batches=3).effective_retry_delay == 3

    def test_without_optimizations(self):
        base = LTPGConfig(delayed_columns=frozenset({("t", "a")}))
        off = base.without_optimizations()
        assert not off.logical_reordering
        assert not off.split_flags
        assert not off.delayed_update
        assert not off.dynamic_buckets
        assert not off.adaptive_warps
        assert not off.pipelined
        assert off.batch_size == base.batch_size

    def test_all_split_columns_includes_delayed(self):
        config = LTPGConfig(
            delayed_columns=frozenset({("t", "a")}),
            split_columns=frozenset({("t", "b")}),
        )
        assert config.all_split_columns() == frozenset({("t", "a"), ("t", "b")})

    def test_invalid_batch_size(self):
        with pytest.raises(TransactionError):
            LTPGConfig(batch_size=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(retry_delay_batches=0), "retry delay"),
        ],
    )
    def test_invalid_combinations(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            LTPGConfig(**kwargs)


class TestStats:
    def test_commit_rate_counts_logic_aborts_as_decided(self):
        s = BatchStats(0, num_txns=10, committed=6, aborted=2, logic_aborted=2)
        assert s.commit_rate == 0.8

    def test_run_stats_throughput(self):
        run = RunStats()
        run.add(BatchStats(0, 100, 80, 20, latency_ns=1e6))
        run.add(BatchStats(1, 100, 90, 10, latency_ns=1e6))
        assert run.total_committed == 170
        assert run.throughput_tps == pytest.approx(170 / 2e-3)
        assert run.mean_latency_ns == 1e6

    def test_phase_totals(self):
        run = RunStats()
        run.add(BatchStats(0, 1, 1, 0, phase_ns={"execute": 5.0}))
        run.add(BatchStats(1, 1, 1, 0, phase_ns={"execute": 7.0, "conflict": 1.0}))
        assert run.phase_totals() == {"execute": 12.0, "conflict": 1.0}

    def test_empty_run(self):
        run = RunStats()
        assert run.throughput_tps == 0.0
        assert run.mean_commit_rate == 1.0
