"""Storage layer: schemas, tables, indexes, database, snapshots, WAL."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DuplicateKey, KeyNotFound, StorageError
from repro.storage import (
    BatchLog,
    Database,
    LogRecord,
    Schema,
    Snapshot,
    SnapshotManager,
    Table,
    make_schema,
)
from repro.storage.schema import ColumnDef
from repro.txn import Transaction
from repro.workloads import build_smallbank, build_tpcc, build_ycsb


class TestSchema:
    def test_make_schema(self):
        s = make_schema("t", "id", "a", "b")
        assert s.column_names == ("a", "b")
        assert s.num_columns == 2
        assert s.row_bytes == 24

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError):
            make_schema("t", "id", "a", "a")

    def test_key_column_must_not_repeat(self):
        with pytest.raises(StorageError):
            make_schema("t", "a", "a", "b")

    def test_invalid_column_name(self):
        with pytest.raises(StorageError):
            make_schema("t", "id", "not a name")


class TestTable:
    def make(self) -> Table:
        return Table(make_schema("t", "id", "a", "b"), capacity=4)

    def test_insert_and_read(self):
        t = self.make()
        row = t.insert(10, {"a": 1, "b": 2})
        assert t.read(row, "a") == 1
        assert t.key_of(row) == 10
        assert t.lookup(10) == row

    def test_insert_duplicate_key_rejected(self):
        t = self.make()
        t.insert(10)
        with pytest.raises(DuplicateKey):
            t.insert(10)

    def test_unknown_column_rejected(self):
        t = self.make()
        with pytest.raises(StorageError):
            t.insert(1, {"a": 1, "nope": 2})
        # refused before anything moved: the key is free, the row unused
        assert t.num_rows == 0 and len(t.primary) == 0
        assert t.get_row(1) is None
        row = t.insert(1, {"a": 3})
        assert (row, t.read(row, "a"), t.lookup(1)) == (0, 3, 0)

    def test_lookup_missing_key(self):
        t = self.make()
        with pytest.raises(KeyNotFound):
            t.lookup(42)
        assert t.get_row(42) is None

    def test_growth_beyond_capacity(self):
        t = self.make()
        for k in range(100):
            t.insert(k, {"a": k})
        assert t.num_rows == 100
        assert t.read(t.lookup(77), "a") == 77

    def test_growth_copies_the_rows_once_and_leaves_the_tail_zero(self):
        """Three doublings (4 -> 32) under non-zero data, by ``insert``
        and by ``append_keys``: every reallocation keeps the live rows,
        and capacity no row occupies reads zero (``np.resize``, which
        ``_grow`` used before, tiles the old rows across it first)."""
        t = self.make()
        for k in range(9):  # 4 -> 8 -> 16
            t.insert(k + 1, {"a": 7 * k + 3, "b": -k - 1})
        rows = t.append_keys(np.arange(10, 21, dtype=np.int64))  # 16 -> 32
        t.column("a")[rows] = 7 * rows + 3
        t.column("b")[rows] = -rows - 1
        assert (t._capacity, t.num_rows) == (32, 20)
        assert t._keys[:20].tolist() == list(range(1, 21))
        assert t.column("a")[:20].tolist() == [7 * k + 3 for k in range(20)]
        assert t.column("b")[:20].tolist() == [-k - 1 for k in range(20)]
        for arr in (t._keys, t.column("a"), t.column("b")):
            assert arr.size == 32 and not arr[20:].any()

    def test_grown_tail_takes_the_column_default(self):
        """Rows past the initial capacity read each column's default
        when nothing writes them, by ``insert`` and by the write-back's
        ``append_keys`` (which scatters only the payload columns)."""
        schema = Schema("t", "id", (ColumnDef("a", default=5), ColumnDef("b")))
        by_insert, by_append = Table(schema, capacity=2), Table(schema, capacity=2)
        for k in range(4):
            by_insert.insert(10 + k)
            by_append.index_appended(by_append.append_keys(np.array([10 + k])))
        for t in (by_insert, by_append):
            assert t._capacity == 4
            assert t.column("a")[:4].tolist() == [5, 5, 5, 5]
            assert t.column("b")[:4].tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: build_tpcc(warehouses=2, num_items=2000, seed=7),
                "8557a47ab96a00e371af63cea66e2709a9e248a865c1f199a15cbea827c05e94",
            ),
            (
                lambda: build_ycsb(5000, seed=7),
                "30e2444728d554de058d796b583af3b0937391bd1bcc13b889629156a66a178a",
            ),
            (
                lambda: build_smallbank(3000, seed=7),
                "daed689ab837d5d169b1550938a6a3261bc7baab17cd3823eaf260cdfa089b84",
            ),
        ],
        ids=["tpcc", "ycsb", "smallbank"],
    )
    def test_bulk_loaded_workloads_keep_their_digest(self, build, digest):
        """Every table of a shipped workload is bulk-loaded through one
        ``_grow`` from the default capacity; digests recorded before
        ``_grow`` stopped tiling."""
        assert build()[0].state_digest() == digest

    def test_write_and_add(self):
        t = self.make()
        row = t.insert(1, {"a": 5})
        t.write(row, "a", 9)
        t.add(row, "a", 1)
        assert t.read(row, "a") == 10

    def test_row_bounds_checked(self):
        t = self.make()
        with pytest.raises(StorageError):
            t.read(0, "a")

    def test_bulk_load_dense_fast_path(self):
        t = self.make()
        t.bulk_load(np.arange(1000), {"a": np.arange(1000) * 2})
        assert t.lookup(999) == 999
        assert t.read(500, "a") == 1000
        assert len(t.primary) == 0  # dense path: no index entries

    def test_bulk_load_sparse_keys(self):
        t = self.make()
        t.bulk_load(np.array([5, 17, 99]), {"a": np.array([1, 2, 3])})
        assert t.lookup(17) == 1

    def test_bulk_load_duplicate_keys_rejected(self):
        t = self.make()
        with pytest.raises(DuplicateKey):
            t.bulk_load(np.array([3, 3]), {})

    @pytest.mark.parametrize(
        "keys, columns, error",
        [
            ([5, 5, 7], {"a": [1, 2, 3]}, DuplicateKey),
            ([5, 6, 7], {"a": [1, 2, 3], "nope": [0, 0, 0]}, StorageError),
        ],
        ids=["duplicate-keys", "unknown-column"],
    )
    def test_refused_bulk_load_leaves_the_table_empty(self, keys, columns, error):
        t = self.make()
        with pytest.raises(error):
            t.bulk_load(np.array(keys), {k: np.array(v) for k, v in columns.items()})
        assert t.num_rows == 0 and len(t.primary) == 0
        assert t.get_row(5) is None
        t.bulk_load(np.array([5, 6, 7]), {"a": np.array([1, 2, 3])})
        assert [t.lookup(k) for k in (5, 6, 7)] == [0, 1, 2]
        assert t.read(2, "a") == 3

    def test_bulk_load_requires_empty(self):
        t = self.make()
        t.insert(1)
        with pytest.raises(StorageError):
            t.bulk_load(np.array([2]), {})

    def test_insert_after_dense_load(self):
        t = self.make()
        t.bulk_load(np.arange(10), {})
        row = t.insert(100, {"a": 7})
        assert t.lookup(100) == row
        with pytest.raises(DuplicateKey):
            t.insert(5)  # inside the dense range

    def test_secondary_index_maintained_on_insert(self):
        t = self.make()
        t.add_secondary_index("a")
        t.insert(1, {"a": 42})
        t.insert(2, {"a": 42})
        t.insert(3, {"a": 7})
        assert t.secondary["a"] == {42: 1, 7: 2}

    def test_secondary_index_backfills_existing_rows(self):
        t = self.make()
        t.insert(1, {"a": 5})
        t.insert(2, {"a": 5})
        t.add_secondary_index("a")
        assert t.secondary["a"] == {5: 1}

    def test_every_index_path_keeps_the_newest_row(self):
        """bulk_load, append_keys + index_appended and insert all leave
        each value pointing at its newest slot, and so does a backfill
        over the rows they made."""
        t = self.make()
        t.add_secondary_index("a")
        t.bulk_load(np.array([10, 11, 12]), {"a": np.array([1, 2, 1])})
        rows = t.append_keys(np.array([20, 21]))
        t.host_column("a")[rows] = [2, 3]
        t.index_appended(rows)
        t.insert(30, {"a": 3})
        expected = {1: 2, 2: 3, 3: 5}
        assert t.secondary["a"] == expected
        t.add_secondary_index("b")
        assert t.secondary["b"] == {0: 5}
        clone = t.copy()
        t.insert(31, {"a": 1})
        assert clone.secondary["a"] == expected

    def test_secondary_index_unknown_column(self):
        t = self.make()
        with pytest.raises(StorageError):
            t.add_secondary_index("zzz")

    def test_copy_is_deep(self):
        t = self.make()
        t.insert(1, {"a": 5})
        clone = t.copy()
        clone.write(0, "a", 99)
        clone.insert(2)
        assert t.read(0, "a") == 5
        assert t.num_rows == 1

    def test_state_signature_changes_with_data(self):
        t = self.make()
        t.insert(1, {"a": 5})
        sig = t.state_signature()
        t.write(0, "a", 6)
        assert t.state_signature() != sig


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        assert db.table("x") is t
        assert db.table_by_id(db.table_id("x")) is t

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(make_schema("x", "id", "a"))
        with pytest.raises(StorageError):
            db.create_table(make_schema("x", "id", "a"))

    def test_unknown_table(self):
        db = Database()
        with pytest.raises(StorageError):
            db.table("nope")
        with pytest.raises(StorageError):
            db.table_by_id(3)

    def test_digest_detects_changes(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        t.insert(1, {"a": 1})
        d1 = db.state_digest()
        t.write(0, "a", 2)
        assert db.state_digest() != d1

    def test_copy_independent(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        t.insert(1, {"a": 1})
        clone = db.copy()
        clone.table("x").write(0, "a", 50)
        assert db.table("x").read(0, "a") == 1
        assert clone.state_digest() != db.state_digest()


class TestSnapshot:
    def test_capture_and_restore(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        t.insert(1, {"a": 1})
        snap = Snapshot.capture(db, batch_index=3)
        t.write(0, "a", 99)
        restored = snap.restore()
        assert restored.table("x").read(0, "a") == 1
        assert snap.digest == restored.state_digest()

    def test_manager_interval(self):
        db = Database()
        db.create_table(make_schema("x", "id", "a"))
        manager = SnapshotManager(interval_batches=4, keep=2)
        assert manager.maybe_capture(db, 0) is not None
        assert manager.maybe_capture(db, 1) is None
        assert manager.maybe_capture(db, 4) is not None
        assert manager.maybe_capture(db, 8) is not None
        assert len(manager) == 2  # keep bound
        assert manager.latest.batch_index == 8


class TestBatchLog:
    def make_txns(self):
        txns = [Transaction("p", (1, 2), tid=i) for i in range(3)]
        return txns

    def test_append_and_outcome(self):
        log = BatchLog()
        log.append_batch(0, self.make_txns())
        log.record_outcome(0, committed=[0, 2], aborted=[1])
        entry = log.batches()[0]
        assert entry.committed_tids.tolist() == [0, 2]
        assert entry.aborted_tids.tolist() == [1]

    def test_outcome_is_none_until_recorded(self):
        log = BatchLog()
        entry = log.append_batch(0, self.make_txns())
        assert entry.committed_tids is None and entry.aborted_tids is None
        log.record_outcome(0, committed=[], aborted=[2, 0, 1])
        assert entry.committed_tids.tolist() == [] and entry.aborted_tids.tolist() == [0, 1, 2]

    def test_outcome_goes_to_the_latest_entry_of_an_index(self):
        log = BatchLog()
        first = log.append_batch(3, self.make_txns())
        log.append_batch(4, [Transaction("q", (), tid=9)])
        again = log.append_batch(3, self.make_txns())
        log.record_outcome(3, committed=[1], aborted=[])
        assert first.committed_tids is None
        assert again.committed_tids.tolist() == [1]

    def test_records_decode_on_demand(self):
        log = BatchLog()
        entry = log.append_batch(0, self.make_txns())
        assert entry.records == [LogRecord(i, "p", (1, 2)) for i in range(3)]
        assert entry.records is not entry.records  # nothing is kept

    def test_outcome_for_unlogged_batch(self):
        log = BatchLog()
        with pytest.raises(StorageError):
            log.record_outcome(5, [], [])
