"""Baseline engines: protocol behaviour, cost-model sanity, and
cross-system agreement."""

from __future__ import annotations

import copy

import pytest

from helpers import build_bank, txn
from repro.baselines import (
    BASELINES,
    AriaEngine,
    BohmEngine,
    CalvinEngine,
    GaccoEngine,
    make_engine,
)
from repro.baselines.base import OpProfile
from repro.baselines.calvin import deterministic_order
from repro.baselines.mvstore import BASE_TID, MultiVersionStore
from repro.errors import BenchmarkError
from repro.txn import (
    BufferedContext,
    OpKind,
    Transaction,
    TxnStatus,
    apply_local_sets,
)
from repro.txn.operations import OpRecord


def make_batch(n=8, conflict=False):
    if conflict:
        txns = [txn("transfer", 0, 1, 1) for _ in range(n)]
    else:
        txns = [txn("transfer", 2 * i, 2 * i + 1, 1) for i in range(n)]
    for i, t in enumerate(txns):
        t.tid = i
    return txns


class TestRegistry:
    def test_all_eight_systems_present(self):
        assert set(BASELINES) == {
            "aria", "calvin", "bohm", "pwv", "dbx1000", "bamboo", "gputx", "gacco",
        }

    def test_make_engine_unknown(self):
        db, registry = build_bank()
        with pytest.raises(BenchmarkError):
            make_engine("oracle", db, registry)


class TestEverySystemFunctional:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_disjoint_batch_commits_and_has_cost(self, name):
        db, registry = build_bank(accounts=32)
        engine = make_engine(name, db, registry)
        stats = engine.run_batch(make_batch(8))
        assert stats.committed == 8
        assert stats.latency_ns > 0
        t = db.table("accounts")
        assert t.read(0, "balance") == 999
        assert t.read(1, "balance") == 1001

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_final_state_is_serial_tid_order(self, name):
        db, registry = build_bank(accounts=8)
        reference = db.copy()
        engine = make_engine(name, db, registry)
        batch = make_batch(6, conflict=True)
        engine.run_batch(batch)
        # serial replay of whatever committed, in TID order
        for t in sorted(batch, key=lambda t: t.tid):
            if t.status is not TxnStatus.COMMITTED:
                continue
            ctx = BufferedContext(reference)
            registry.get(t.procedure_name)(ctx, *t.params)
            apply_local_sets(reference, ctx.local)
        assert reference.state_digest() == db.state_digest()

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_logic_abort_counted(self, name):
        db, registry = build_bank()
        engine = make_engine(name, db, registry)
        batch = [txn("bad", 0)]
        batch[0].tid = 0
        stats = engine.run_batch(batch)
        assert stats.logic_aborted == 1
        assert db.table("accounts").read(0, "flags") == 0


class TestAria:
    def test_conflicting_writers_abort_and_retry(self):
        db, registry = build_bank()
        engine = AriaEngine(db, registry)
        batch = make_batch(4, conflict=True)
        stats = engine.run_batch(batch)
        assert stats.committed == 1
        assert stats.aborted == 3
        assert batch[0].status is TxnStatus.COMMITTED

    def test_run_transactions_drains_retries(self):
        db, registry = build_bank()
        engine = AriaEngine(db, registry)
        txns = [txn("transfer", 0, 1, 1) for _ in range(4)]
        run = engine.run_transactions(txns, batch_size=4, max_batches=20)
        assert all(t.is_final for t in txns)
        assert run.total_committed == 4
        assert db.table("accounts").read(0, "balance") == 996

    def test_reordering_commits_pure_readers(self):
        db, registry = build_bank()
        engine = AriaEngine(db, registry)
        batch = [txn("transfer", 0, 1, 1), txn("audit", 0, 1)]
        for i, t in enumerate(batch):
            t.tid = i
        stats = engine.run_batch(batch)
        assert stats.committed == 2

    def test_no_reordering_aborts_raw_readers(self):
        db, registry = build_bank()
        engine = AriaEngine(db, registry)
        engine.reorder = False
        batch = [txn("transfer", 0, 1, 1), txn("audit", 0, 1)]
        for i, t in enumerate(batch):
            t.tid = i
        stats = engine.run_batch(batch)
        assert stats.committed == 1
        assert batch[1].abort_reason == "raw"

    def test_matches_ltpg_row_level_commits(self):
        """Aria == LTPG with every GPU optimization disabled (both are
        deterministic OCC with reordering at row granularity)."""
        from repro.core import LTPGConfig, LTPGEngine
        import dataclasses

        txns = [txn("transfer", i % 5, (i + 2) % 5, 1) for i in range(20)]
        db_a, reg_a = build_bank()
        aria = AriaEngine(db_a, reg_a)
        batch_a = [copy.deepcopy(t) for t in txns]
        for i, t in enumerate(batch_a):
            t.tid = i
        aria.run_batch(batch_a)

        db_l, reg_l = build_bank()
        config = dataclasses.replace(
            LTPGConfig(batch_size=32).without_optimizations(),
            logical_reordering=True,
        )
        ltpg = LTPGEngine(db_l, reg_l, config)
        batch_l = [copy.deepcopy(t) for t in txns]
        for i, t in enumerate(batch_l):
            t.tid = i
        ltpg.run_batch(batch_l)

        assert [t.status for t in batch_a] == [t.status for t in batch_l]
        assert db_a.state_digest() == db_l.state_digest()


class TestCalvinSchedule:
    def test_contention_increases_makespan(self):
        db, registry = build_bank()
        low = CalvinEngine(db.copy(), registry).run_batch(make_batch(8))
        high = CalvinEngine(db.copy(), registry).run_batch(
            make_batch(8, conflict=True)
        )
        assert high.latency_ns > low.latency_ns

    def test_deterministic_order_is_stable_tid_sort(self):
        txns = [
            Transaction("balance", (i,), tid=tid)
            for i, tid in enumerate([5, 1, 3, 1, 2])
        ]
        ordered = deterministic_order(txns)
        assert [t.tid for t in ordered] == [1, 1, 2, 3, 5]
        # stable: the two tid=1 entries keep their admission order
        assert ordered[0].params[0] == 1 and ordered[1].params[0] == 3


class TestBohm:
    def test_mvstore_visibility(self):
        store = MultiVersionStore()
        store.insert_placeholder(("t", 1), 5)
        store.insert_placeholder(("t", 1), 9)
        assert store.visible_tid(("t", 1), 4) == BASE_TID
        assert store.visible_tid(("t", 1), 6) == 5
        assert store.visible_tid(("t", 1), 100) == 9
        assert store.max_chain() == 2

    def test_mvstore_one_version_per_txn(self):
        store = MultiVersionStore()
        store.insert_placeholder(("t", 1), 5)
        store.insert_placeholder(("t", 1), 5)
        assert store.max_chain() == 1

    def test_version_work_scales_cost(self):
        db, registry = build_bank()
        few = BohmEngine(db.copy(), registry).run_batch(make_batch(2))
        many = BohmEngine(db.copy(), registry).run_batch(make_batch(16))
        assert many.latency_ns > few.latency_ns


class TestGpuBaselines:
    def test_gputx_rounds_grow_with_contention(self):
        db, registry = build_bank()
        from repro.baselines import GpuTxEngine

        low = GpuTxEngine(db.copy(), registry).run_batch(make_batch(8))
        high = GpuTxEngine(db.copy(), registry).run_batch(
            make_batch(8, conflict=True)
        )
        assert high.latency_ns > low.latency_ns

    def test_gacco_exchange_ops_cheaper_than_writes(self):
        db, registry = build_bank()
        deposits = [txn("deposit", 0, 1) for _ in range(16)]  # commutative
        transfers = [txn("transfer", 0, 1, 1) for _ in range(16)]
        for i, t in enumerate(deposits):
            t.tid = i
        for i, t in enumerate(transfers):
            t.tid = i
        s_dep = GaccoEngine(db.copy(), registry).run_batch(deposits)
        s_tr = GaccoEngine(db.copy(), registry).run_batch(transfers)
        assert s_dep.latency_ns < s_tr.latency_ns
        assert s_dep.committed == 16  # no aborts in GaccO

    def test_gacco_reports_phases_and_transfer(self):
        db, registry = build_bank()
        stats = GaccoEngine(db, registry).run_batch(make_batch(4))
        assert set(stats.phase_ns) == {"preprocess", "execute", "transfer"}
        assert stats.transfer_ns > 0


class TestOpProfile:
    def test_one_writer_entry_per_txn_per_item(self):
        profile = OpProfile()
        op = OpRecord(OpKind.WRITE, 0, 5, "a", 1)
        profile.record(3, op)
        profile.record(3, op)  # same txn, same item: no new chain entry
        profile.record(4, op)
        assert profile.writers_per_item[(0, 5)] == [3, 4]
        assert profile.writes == 3
        assert profile.max_write_chain() == 2

    def test_contended_write_ops(self):
        profile = OpProfile()
        profile.record(1, OpRecord(OpKind.WRITE, 0, 5, "a", 1))
        profile.record(2, OpRecord(OpKind.WRITE, 0, 5, "a", 1))
        profile.record(3, OpRecord(OpKind.WRITE, 0, 9, "a", 1))
        assert profile.contended_write_ops() == 2
