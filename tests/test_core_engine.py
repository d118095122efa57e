"""LTPG engine end-to-end semantics on the bank workload."""

from __future__ import annotations

import copy

import pytest

from helpers import bank_engine, build_bank, tids, txn
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import StorageError, TransactionError
from repro.txn import BatchScheduler, TxnStatus, drive
from repro.validate import replay_in_witness_order


def run_batch(engine, txns):
    tids(txns)
    return engine.run_batch(txns)


class TestBasicCommit:
    def test_disjoint_transfers_all_commit(self, bank):
        engine, db, _ = bank
        txns = [txn("transfer", 2 * i, 2 * i + 1, 10) for i in range(8)]
        result = run_batch(engine, txns)
        assert result.stats.committed == 8
        assert result.stats.aborted == 0
        t = db.table("accounts")
        for i in range(8):
            assert t.read(2 * i, "balance") == 990
            assert t.read(2 * i + 1, "balance") == 1010

    def test_conflicting_transfers_min_tid_wins(self, bank):
        engine, db, _ = bank
        txns = [txn("transfer", 0, 1, 10), txn("transfer", 0, 2, 20)]
        result = run_batch(engine, txns)
        assert result.stats.committed == 1
        assert txns[0].status is TxnStatus.COMMITTED
        assert txns[1].status is TxnStatus.ABORTED
        assert "waw" in txns[1].abort_reason
        assert db.table("accounts").read(0, "balance") == 990

    def test_reader_after_writer_reorders_and_commits(self, bank):
        engine, db, _ = bank
        txns = [txn("transfer", 0, 1, 10), txn("audit", 0, 5)]
        result = run_batch(engine, txns)
        # audit (tid 1) read account 0 which tid 0 wrote: RAW, but no
        # WAR -> logical reordering commits it before the transfer.
        assert result.stats.committed == 2
        assert result.serial_order() == [1, 0]

    def test_reader_aborts_without_reordering(self, bank):
        _, db, registry = bank
        engine = LTPGEngine(
            db, registry, LTPGConfig(batch_size=64, logical_reordering=False)
        )
        txns = [txn("transfer", 0, 1, 10), txn("audit", 0, 5)]
        result = run_batch(engine, txns)
        assert txns[1].status is TxnStatus.ABORTED
        assert txns[1].abort_reason == "raw"

    def test_logic_abort_is_final_and_writes_nothing(self, bank):
        engine, db, _ = bank
        txns = [txn("bad", 0)]
        result = run_batch(engine, txns)
        assert txns[0].status is TxnStatus.LOGIC_ABORTED
        assert result.logic_aborted == [txns[0]]
        assert db.table("accounts").read(0, "flags") == 0

    def test_insert_conflict_unique_winner(self, bank):
        engine, db, _ = bank
        txns = [txn("open_account", 500, 1), txn("open_account", 500, 2)]
        result = run_batch(engine, txns)
        assert result.stats.committed == 1
        assert txns[0].status is TxnStatus.COMMITTED
        assert db.table("accounts").read(db.table("accounts").lookup(500), "balance") == 1

    def test_commutative_adds_all_commit_without_delayed_update(self, bank):
        # ADD is a read-modify-write under plain OCC: on the same row
        # only the min TID commits.
        engine, db, _ = bank
        txns = [txn("deposit", 7, 5) for _ in range(4)]
        result = run_batch(engine, txns)
        assert result.stats.committed == 1
        assert db.table("accounts").read(7, "balance") == 1005

    def test_empty_batch(self, bank):
        engine, _, _ = bank
        result = engine.run_batch([])
        assert result.stats.num_txns == 0


class TestDelayedUpdate:
    def engine(self):
        db, registry = build_bank()
        config = LTPGConfig(
            batch_size=64,
            delayed_columns=frozenset({("accounts", "balance")}),
        )
        return LTPGEngine(db, registry, config), db

    def test_hot_adds_all_commit(self):
        engine, db = self.engine()
        txns = [txn("deposit", 7, 5) for _ in range(10)]
        result = run_batch(engine, txns)
        assert result.stats.committed == 10
        assert db.table("accounts").read(7, "balance") == 1050

    def test_aborted_transaction_adds_not_applied(self):
        engine, db = self.engine()
        # transfers write 'balance'... which is delayed-managed: engine
        # must reject non-ADD access to a delayed column.
        txns = [txn("transfer", 0, 1, 10)]
        tids(txns)
        with pytest.raises(TransactionError):
            engine.run_batch(txns)

    def test_mixed_delayed_and_plain_tables(self):
        engine, db = self.engine()
        txns = [txn("deposit", 3, 1), txn("deposit", 3, 2), txn("open_account", 900, 7)]
        result = run_batch(engine, txns)
        assert result.stats.committed == 3
        assert db.table("accounts").read(3, "balance") == 1003


class TestSplitFlags:
    def test_split_avoids_cross_column_conflict(self):
        db, registry = build_bank()
        config = LTPGConfig(
            batch_size=64,
            split_columns=frozenset({("accounts", "flags")}),
            delayed_update=False,
        )
        engine = LTPGEngine(db, registry, config)

        @registry.register("set_flag")
        def set_flag(ctx, a):
            ctx.write("accounts", a, "flags", 1)

        txns = [txn("set_flag", 0), txn("audit", 0, 1)]
        result = run_batch(engine, txns)
        # audit reads balance (group 0); set_flag writes flags (group 1):
        # no conflict even though both touch row 0.
        assert result.stats.committed == 2

    def test_without_split_same_row_conflicts(self):
        db, registry = build_bank()
        config = LTPGConfig(
            batch_size=64, split_flags=False, logical_reordering=False
        )
        engine = LTPGEngine(db, registry, config)

        @registry.register("set_flag")
        def set_flag(ctx, a):
            ctx.write("accounts", a, "flags", 1)

        txns = [txn("set_flag", 0), txn("audit", 0, 1)]
        result = run_batch(engine, txns)
        assert txns[1].status is TxnStatus.ABORTED


class TestDeterminism:
    def test_same_input_same_outcome_and_state(self):
        outcomes = []
        digests = []
        for _ in range(2):
            engine, db, _ = bank_engine()
            txns = [txn("transfer", i % 4, (i + 1) % 4, 1) for i in range(16)]
            result = run_batch(engine, txns)
            outcomes.append(sorted(t.tid for t in result.committed))
            digests.append(db.state_digest())
        assert outcomes[0] == outcomes[1]
        assert digests[0] == digests[1]

    def test_retried_transactions_keep_tids(self, bank):
        engine, _, _ = bank
        scheduler = BatchScheduler(batch_size=8)
        txns = [txn("transfer", 0, 1, 1) for _ in range(8)]
        scheduler.admit(txns)
        (result,) = drive(engine, scheduler, max_batches=1)
        aborted_tids = [t.tid for t in result.aborted]
        nxt = scheduler.next_batch()
        assert [t.tid for t in nxt] == sorted(aborted_tids)

    def test_batch_log_records_everything(self, bank):
        engine, _, _ = bank
        txns = [txn("transfer", 0, 1, 1), txn("transfer", 0, 2, 1)]
        run_batch(engine, txns)
        entry = engine.batch_log.batches()[0]
        assert len(entry.records) == 2
        assert entry.committed_tids.tolist() == [0]
        assert entry.aborted_tids.tolist() == [1]


class TestSerializability:
    def test_committed_state_equals_serial_replay(self):
        engine, db, registry = bank_engine()
        before = db.copy()
        txns = [txn("transfer", i % 6, (i + 3) % 6, i + 1) for i in range(24)]
        txns += [txn("audit", 1, 2) for _ in range(4)]
        result = run_batch(engine, txns)
        replay_in_witness_order(before, registry, result)
        assert before.state_digest() == db.state_digest()

    def test_replay_with_reordered_readers(self):
        engine, db, registry = bank_engine()
        before = db.copy()
        txns = [txn("transfer", 0, 1, 7), txn("audit", 0, 1), txn("audit", 1, 0)]
        result = run_batch(engine, txns)
        assert result.stats.committed == 3
        replay_in_witness_order(before, registry, result)
        assert before.state_digest() == db.state_digest()


class TestProcessLoop:
    def test_all_transactions_eventually_final(self, bank):
        engine, _, _ = bank
        txns = [txn("transfer", 0, 1, 1) for _ in range(6)]
        stats = engine.run_transactions(txns, max_batches=20)
        assert all(t.is_final for t in txns)
        assert stats.total_committed == 6

    def test_run_stats_aggregation(self, bank):
        engine, _, _ = bank
        txns = [txn("deposit", i, 1) for i in range(10)]
        stats = engine.run_transactions(txns)
        assert stats.total_admitted >= 10
        assert stats.throughput_tps > 0
        assert stats.mean_commit_rate > 0


def test_long_lived_engine_device_keeps_nothing_per_batch():
    # the device keeps clocks, not a history: what a launch recorded
    # lives only as long as the last batch's stage clocks hold it
    import gc
    from itertools import islice

    from repro.gpusim import KernelStats, KernelTiming
    from repro.workloads.smallbank import build_smallbank

    db, registry, generator = build_smallbank(num_accounts=1024, seed=3)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=64))
    stream = drive(engine, BatchScheduler(64), generator.make_batch)

    def live_records() -> int:
        gc.collect()
        kinds = (KernelStats, KernelTiming)
        return sum(isinstance(o, kinds) for o in gc.get_objects())

    for _ in islice(stream, 10):
        pass
    after_10 = live_records()
    for _ in islice(stream, 200):
        pass
    assert live_records() == after_10 <= 3



def _misnamed_bank(twin: bool):
    """:func:`build_bank` plus ``misnamed(kind, a)``, which adds to
    (kind 0) or inserts a payload naming (kind 1) a column ``accounts``
    lacks — as a scalar procedure, or through a twin."""
    db, registry = build_bank(accounts=64)

    @registry.register("misnamed")
    def misnamed(ctx, kind, a):
        if kind == 0:
            ctx.add("accounts", a, "nope", 1)
        else:
            ctx.insert("accounts", 1000 + a, {"balance": 1, "nope": 1})

    if twin:

        @registry.register_batched("misnamed")
        def misnamed_b(bctx, p):
            lanes = bctx.all_lanes()
            kind, a = p.column(0), p.column(1)
            adds = lanes[kind == 0]
            rows, found = bctx.rows_for_keys("accounts", adds, a[adds])
            bctx.add("accounts", adds[found], rows[found], "nope", 1)
            ins = lanes[kind != 0]
            bctx.insert("accounts", ins, 1000 + a[ins], {"balance": 1, "nope": 1})

    return db, registry


@pytest.mark.parametrize("twin", [False, True], ids=["twin-less", "twin"])
@pytest.mark.parametrize("kind", [0, 1], ids=["add", "insert"])
def test_unknown_column_refuses_the_batch_before_any_install(twin, kind):
    db, registry = _misnamed_bank(twin)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=8))
    digest, rows = db.state_digest(), db.table("accounts").num_rows
    with pytest.raises(StorageError, match="no column 'nope'"):
        run_batch(engine, [txn("transfer", 0, 1, 5), txn("misnamed", kind, 3)])
    assert db.state_digest() == digest
    assert db.table("accounts").num_rows == rows
    assert db.table("accounts").read(0, "balance") == 1000

#: SmallBank (seed 7) driven four batches of 128, then the mixed bank's
#: batch (reversed) to completion, batched and twin-less: per batch the
#: items of ``total_by_proc``, ``committed_by_proc``, ``abort_reasons``
#: and ``commit_attempts``, in each Counter's insertion order.
_SMALLBANK_ORDERS = [
    (
        (("amalgamate", 22), ("send_payment", 19), ("write_check", 16),
         ("deposit_checking", 34), ("balance", 17), ("transact_savings", 20)),
        (("amalgamate", 5), ("send_payment", 4), ("write_check", 8),
         ("deposit_checking", 18), ("balance", 17), ("transact_savings", 13)),
        (("waw+raw+war", 63),),
        ((1, 65),),
    ),
    (
        (("transact_savings", 17), ("deposit_checking", 34), ("send_payment", 28),
         ("amalgamate", 23), ("write_check", 17), ("balance", 9)),
        (("transact_savings", 8), ("deposit_checking", 10), ("send_payment", 2),
         ("amalgamate", 2), ("write_check", 5), ("balance", 9)),
        (("logic", 7), ("waw+raw+war", 85)),
        ((2, 8), (1, 28)),
    ),
    (
        (("deposit_checking", 39), ("amalgamate", 27), ("write_check", 17),
         ("send_payment", 23), ("transact_savings", 16), ("balance", 6)),
        (("deposit_checking", 12), ("amalgamate", 6), ("transact_savings", 5),
         ("balance", 6), ("write_check", 2)),
        (("logic", 2), ("waw+raw+war", 95)),
        ((3, 7), (2, 3), (1, 21)),
    ),
    (
        (("deposit_checking", 38), ("write_check", 22), ("amalgamate", 26),
         ("send_payment", 24), ("transact_savings", 14), ("balance", 4)),
        (("deposit_checking", 8), ("write_check", 5), ("send_payment", 2),
         ("amalgamate", 1), ("balance", 4), ("transact_savings", 1)),
        (("logic", 1), ("waw+raw+war", 106)),
        ((4, 5), (3, 3), (1, 13)),
    ),
]

_MIXED_BANK_ORDERS = [
    (
        (("audit", 21), ("deposit", 20), ("transfer", 20), ("open_account", 2),
         ("bad", 1)),
        (("audit", 21), ("deposit", 20), ("open_account", 2)),
        (("logic", 1), ("waw+raw+war", 20)),
        ((1, 43),),
    ),
    (
        (("transfer", 34), ("deposit", 14), ("bad", 2), ("audit", 13),
         ("open_account", 1)),
        (("transfer", 7), ("deposit", 5), ("audit", 13), ("open_account", 1)),
        (("logic", 2), ("waw+raw+war", 36)),
        ((2, 7), (1, 19)),
    ),
    (
        (("transfer", 36), ("deposit", 18), ("audit", 9), ("open_account", 1)),
        (("transfer", 7), ("deposit", 7), ("audit", 9), ("open_account", 1)),
        (("waw+raw+war", 40),),
        ((3, 7), (2, 7), (1, 10)),
    ),
    (
        (("transfer", 34), ("deposit", 16), ("audit", 5), ("bad", 1),
         ("open_account", 1)),
        (("transfer", 7), ("deposit", 7), ("audit", 5), ("open_account", 1)),
        (("logic", 1), ("waw+raw+war", 36)),
        ((4, 6), (3, 3), (2, 5), (1, 6)),
    ),
    (
        (("transfer", 27), ("deposit", 9)),
        (("transfer", 7), ("deposit", 7)),
        (("waw+raw+war", 22),),
        ((4, 7), (3, 4), (2, 3)),
    ),
    (
        (("transfer", 20), ("deposit", 2)),
        (("transfer", 7), ("deposit", 2)),
        (("waw+raw+war", 13),),
        ((5, 6), (4, 1), (3, 2)),
    ),
    ((("transfer", 13),), (("transfer", 7),), (("waw+raw+war", 6),), ((5, 7),)),
    ((("transfer", 6),), (("transfer", 6),), (), ((6, 1), (5, 5))),
]


def _counter_orders(results) -> list[tuple]:
    return [
        tuple(
            tuple(counter.items())
            for counter in (
                r.stats.total_by_proc,
                r.stats.committed_by_proc,
                r.stats.abort_reasons,
                r.stats.commit_attempts,
            )
        )
        for r in results
    ]


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "twin-less"])
def test_batch_stats_counter_orders_are_pinned(batched):
    """Batches with logic and concurrency-control aborts, retried lanes
    and procedures that commit in another order than they arrived: every
    ``BatchStats`` Counter keeps the insertion order recorded."""
    from helpers import mixed_bank_registry, mixed_bank_specs
    from repro.analysis.workload import build_workload
    from repro.txn import Transaction

    setup = build_workload("smallbank", seed=7)
    engine = setup.engine(batch_size=128, batched_exec=batched)
    results = drive(
        engine, BatchScheduler(128), setup.generator.make_batch, max_batches=4
    )
    assert _counter_orders(results) == _SMALLBANK_ORDERS

    engine = LTPGEngine(
        *mixed_bank_registry(), LTPGConfig(batch_size=64, batched_exec=batched)
    )
    scheduler = BatchScheduler(64)
    scheduler.admit([Transaction(n, p) for n, p in mixed_bank_specs()[::-1]])
    assert _counter_orders(drive(engine, scheduler)) == _MIXED_BANK_ORDERS
