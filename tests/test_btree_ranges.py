"""B-tree index and the range-query extension (phantom-safe scans)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_bank, txn
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import DuplicateKey, KeyNotFound, StorageError
from repro.storage import Table, make_schema
from repro.storage.btree import BTreeIndex
from repro.txn import BufferedContext, TxnStatus
from repro.workloads.ycsb import build_ycsb


class TestBTreeBasics:
    def test_insert_and_lookup(self):
        tree = BTreeIndex(order=4)
        for k in [5, 1, 9, 3, 7]:
            tree.insert(k, k * 10)
        assert tree.lookup(3) == 30
        assert tree.lookup(9) == 90
        assert len(tree) == 5

    def test_duplicate_rejected(self):
        tree = BTreeIndex(order=4)
        tree.insert(1, 1)
        with pytest.raises(DuplicateKey):
            tree.insert(1, 2)

    def test_missing_key(self):
        tree = BTreeIndex()
        with pytest.raises(KeyNotFound):
            tree.lookup(42)
        assert tree.get(42) is None
        assert 42 not in tree

    def test_splits_grow_height(self):
        tree = BTreeIndex(order=4)
        for k in range(100):
            tree.insert(k, k)
        assert tree.height > 1
        for k in range(100):
            assert tree.lookup(k) == k

    def test_range_inclusive(self):
        tree = BTreeIndex(order=4)
        for k in range(0, 40, 2):
            tree.insert(k, k)
        got = [k for k, _ in tree.range(10, 20)]
        assert got == [10, 12, 14, 16, 18, 20]

    def test_range_empty_and_inverted(self):
        tree = BTreeIndex(order=4)
        tree.insert(5, 5)
        assert list(tree.range(6, 9)) == []
        assert list(tree.range(9, 6)) == []

    def test_items_sorted(self):
        tree = BTreeIndex(order=4)
        keys = [9, 2, 7, 4, 11, 0]
        for k in keys:
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_copy_independent(self):
        tree = BTreeIndex(order=4)
        tree.insert(1, 1)
        clone = tree.copy()
        clone.insert(2, 2)
        assert 2 not in tree

    def test_invalid_order(self):
        with pytest.raises(StorageError):
            BTreeIndex(order=2)

    @given(st.lists(st.integers(-(10**6), 10**6), unique=True, max_size=300))
    @settings(max_examples=30)
    def test_against_sorted_dict_oracle(self, keys):
        tree = BTreeIndex(order=4)
        for i, k in enumerate(keys):
            tree.insert(k, i)
        assert len(tree) == len(keys)
        model = dict(zip(keys, range(len(keys))))
        for k, v in model.items():
            assert tree.lookup(k) == v
        assert [k for k, _ in tree.items()] == sorted(model)
        if keys:
            lo, hi = min(keys), max(keys)
            mid_lo, mid_hi = sorted([keys[0], keys[-1]])
            expected = sorted(k for k in model if mid_lo <= k <= mid_hi)
            assert [k for k, _ in tree.range(mid_lo, mid_hi)] == expected


class TestTableOrderedIndex:
    def test_range_rows(self):
        table = Table(make_schema("t", "id", "v"))
        for k in [10, 30, 20]:
            table.insert(k, {"v": k})
        table.add_ordered_index()
        assert [k for k, _ in table.range_rows(10, 25)] == [10, 20]

    def test_index_backfills_and_tracks_inserts(self):
        table = Table(make_schema("t", "id", "v"))
        table.insert(5)
        table.add_ordered_index()
        table.insert(3)
        assert [k for k, _ in table.range_rows(0, 10)] == [3, 5]

    def test_range_without_index_rejected(self):
        table = Table(make_schema("t", "id", "v"))
        with pytest.raises(StorageError):
            table.range_rows(0, 1)

    def test_double_index_rejected(self):
        table = Table(make_schema("t", "id", "v"))
        table.add_ordered_index()
        with pytest.raises(StorageError):
            table.add_ordered_index()

    def test_copy_carries_ordered_index(self):
        table = Table(make_schema("t", "id", "v"))
        table.insert(1)
        table.add_ordered_index()
        clone = table.copy()
        clone.insert(2)
        assert len(clone.ordered) == 2
        assert len(table.ordered) == 1

    def test_bulk_load_populates_existing_index(self):
        table = Table(make_schema("t", "id", "v"))
        table.add_ordered_index()
        table.bulk_load(np.array([4, 7, 9]), {})
        assert [k for k, _ in table.range_rows(0, 10)] == [4, 7, 9]


def ranged_bank():
    """Bank with an ordered index and a range-sum procedure."""
    db, registry = build_bank(accounts=32)
    db.table("accounts").add_ordered_index()

    @registry.register("range_sum")
    def range_sum(ctx, lo, hi):
        ctx.range_read("accounts", lo, hi, "balance")

    return db, registry


class TestRangePhantoms:
    def run_batch(self, db, registry, txns, reorder=True):
        engine = LTPGEngine(
            db, registry,
            LTPGConfig(batch_size=64, logical_reordering=reorder),
        )
        for i, t in enumerate(txns):
            t.tid = i
        return engine.run_batch(txns)

    def test_range_read_returns_values(self):
        db, registry = ranged_bank()
        ctx = BufferedContext(db)
        values = ctx.range_read("accounts", 0, 4, "balance")
        assert values == [1000] * 5
        assert ctx.ranges == [(0, 0, 4)]

    def test_range_read_sees_own_writes(self):
        db, registry = ranged_bank()
        ctx = BufferedContext(db)
        ctx.write("accounts", 2, "balance", 7)
        assert ctx.range_read("accounts", 0, 4, "balance")[2] == 7

    def test_earlier_insert_aborts_range_reader_without_reordering(self):
        db, registry = ranged_bank()
        txns = [txn("open_account", 40, 1), txn("range_sum", 35, 45)]
        result = self.run_batch(db, registry, txns, reorder=False)
        assert txns[0].status is TxnStatus.COMMITTED
        assert txns[1].status is TxnStatus.ABORTED
        assert "raw" in txns[1].abort_reason

    def test_reordering_serializes_range_reader_before_inserter(self):
        # RAW-only reader: with logical reordering it commits, ordered
        # *before* the inserter (its snapshot scan is then consistent).
        db, registry = ranged_bank()
        txns = [txn("open_account", 40, 1), txn("range_sum", 35, 45)]
        result = self.run_batch(db, registry, txns, reorder=True)
        assert result.stats.committed == 2

    def test_later_insert_into_read_range_both_commit(self):
        # Reader (tid 0) scans; inserter (tid 1) adds a key in range:
        # serial order reader-then-inserter is consistent, both commit.
        db, registry = ranged_bank()
        txns = [txn("range_sum", 35, 45), txn("open_account", 40, 1)]
        result = self.run_batch(db, registry, txns)
        assert result.stats.committed == 2

    def test_phantom_war_marks_later_inserter(self):
        # insert@40 (tid 0), scan 35-45 (tid 1), insert@42 (tid 2).
        # Without reordering: the reader aborts on its RAW; the later
        # inserter carries a WAR flag (harmless alone) and commits.
        db, registry = ranged_bank()
        txns = [
            txn("open_account", 40, 1),
            txn("range_sum", 35, 45),
            txn("open_account", 42, 1),
        ]
        result = self.run_batch(db, registry, txns, reorder=False)
        assert txns[0].status is TxnStatus.COMMITTED
        assert txns[1].status is TxnStatus.ABORTED
        assert txns[2].status is TxnStatus.COMMITTED

        # With reordering all three commit: the reader serializes first.
        db2, registry2 = ranged_bank()
        txns2 = [
            txn("open_account", 40, 1),
            txn("range_sum", 35, 45),
            txn("open_account", 42, 1),
        ]
        result2 = self.run_batch(db2, registry2, txns2, reorder=True)
        assert result2.stats.committed == 3

    def test_insert_outside_range_is_no_conflict(self):
        db, registry = ranged_bank()
        txns = [txn("open_account", 100, 1), txn("range_sum", 0, 10)]
        result = self.run_batch(db, registry, txns)
        assert result.stats.committed == 2

    def test_retried_range_reader_sees_inserted_row(self):
        db, registry = ranged_bank()
        txns = [txn("open_account", 5000, 1), txn("range_sum", 4990, 5010)]
        engine = LTPGEngine(
            db, registry,
            LTPGConfig(batch_size=64, logical_reordering=False),
        )
        for i, t in enumerate(txns):
            t.tid = i
        result = engine.run_batch(txns)
        assert txns[1].status is TxnStatus.ABORTED
        retry = engine.run_batch(result.aborted)
        assert retry.stats.committed == 1
        # and the re-executed scan now observes the phantom row
        ctx = BufferedContext(db)
        assert len(ctx.range_read("accounts", 4990, 5010, "balance")) == 1


class TestYcsbBtreeScans:
    def test_workload_e_with_btree(self):
        db, registry, gen = build_ycsb(
            2000, workload="e", seed=3, btree_scans=True
        )
        from repro.txn import assign_tids

        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=64))
        batch = gen.make_batch(64)
        assign_tids(batch, 0)
        result = engine.run_batch(batch)
        # scans + unique-key inserts: phantom aborts only where an
        # insert landed inside a concurrent scan's range (rare here)
        assert result.stats.committed > 48
        assert engine.database.table("usertable").ordered is not None
