"""The ordered index and the range-query extension (phantom-safe scans)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_bank, txn
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import DuplicateKey, StorageError
from repro.storage import OrderedIndex, Table, make_schema
from repro.txn import BufferedContext, TxnStatus
from repro.workloads.ycsb import build_ycsb


KEYS = st.integers(-(10**6), 10**6)
BOUND = st.integers(-(2 * 10**6), 2 * 10**6)


def _ordered(*keys: int) -> OrderedIndex:
    """An ordered index holding ``keys``, row ``10 * key`` each."""
    index = OrderedIndex()
    arr = np.array(keys, dtype=np.int64)
    index.add(arr, arr * 10)
    return index


def _range(index: OrderedIndex, lo: int, hi: int) -> list[tuple[int, int]]:
    keys, rows = index.range(lo, hi)
    assert keys.dtype == rows.dtype == np.int64
    return list(zip(keys.tolist(), rows.tolist()))


class TestBTreeBasics:
    """The ordered index behind the range-query extension: sorted
    arrays, priced as the B+-tree of 32 keys per node it models."""

    def test_insert_and_lookup(self):
        index = _ordered(5, 1, 9, 3, 7)
        assert _range(index, 3, 3) == [(3, 30)]
        assert _range(index, 9, 9) == [(9, 90)]
        assert len(index) == 5

    def test_duplicate_rejected(self):
        # the primary index refuses the key before the ordered one sees it
        table = Table(make_schema("t", "id", "v"))
        table.add_ordered_index()
        table.insert(1)
        with pytest.raises(DuplicateKey):
            table.insert(1)
        assert _range(table.ordered, 0, 9) == [(1, 0)]

    def test_missing_key(self):
        assert _range(OrderedIndex(), 42, 42) == []
        assert _range(_ordered(41, 43), 42, 42) == []

    def test_splits_grow_height(self):
        """Pinned on each side of every step: a tree filled by
        ascending appends first has h+1 levels at 33, 530, 8,963 and
        152,308 entries."""
        pins = [(0, 1), (1, 1), (32, 1), (33, 2), (529, 2), (530, 3),
                (8_962, 3), (8_963, 4), (152_307, 4), (152_308, 5)]
        for entries, height in pins:
            keys = np.arange(entries, dtype=np.int64)
            index = OrderedIndex()
            index.add(keys, keys)
            assert index.height == height, entries

    def test_range_inclusive(self):
        index = _ordered(*range(0, 40, 2))
        assert [k for k, _ in _range(index, 10, 20)] == [10, 12, 14, 16, 18, 20]

    def test_range_empty_and_inverted(self):
        index = _ordered(5)
        assert _range(index, 6, 9) == []
        assert _range(index, 9, 6) == []
        assert _range(index, 5, 4) == []

    def test_items_sorted(self):
        keys = [9, 2, 7, 4, 11, 0]
        index = OrderedIndex()
        for k in keys:  # one add per key, in any order
            index.add(np.array([k]), np.array([k]))
        assert [k for k, _ in _range(index, -(2**62), 2**62)] == sorted(keys)

    def test_copy_independent(self):
        index = _ordered(5, 1)
        clone = index.copy()
        clone.add(np.array([3]), np.array([30]))
        index.add(np.array([9]), np.array([90]))
        assert _range(index, 0, 10) == [(1, 10), (5, 50), (9, 90)]
        assert _range(clone, 0, 10) == [(1, 10), (3, 30), (5, 50)]

    @given(
        st.lists(st.lists(KEYS, max_size=40), max_size=8),
        st.lists(st.tuples(BOUND, BOUND), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_sorted_dict_oracle(self, calls, bounds):
        """Adds in several calls, each in any key order, then ranges
        with empty, inverted and out-of-span bounds."""
        index, model = OrderedIndex(), {}
        for keys in calls:
            new = [k for k in dict.fromkeys(keys) if k not in model]
            rows = list(range(len(model), len(model) + len(new)))
            index.add(np.array(new, dtype=np.int64), np.array(rows, dtype=np.int64))
            model.update(zip(new, rows))
            assert len(index) == len(model)
        span = sorted(model)
        edges = [(-(3 * 10**6), 3 * 10**6)]
        if span:
            edges += [(span[0], span[-1]), (span[-1] + 1, span[-1] + 9),
                      (span[0] - 9, span[0] - 1), (span[-1], span[0])]
        for lo, hi in edges + bounds:
            assert _range(index, lo, hi) == [
                (k, model[k]) for k in span if lo <= k <= hi
            ]


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
