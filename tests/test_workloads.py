"""Workloads: random helpers, TPC-C, YCSB."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import LTPGConfig, LTPGEngine
from repro.errors import WorkloadError
from repro.txn import BufferedContext, assign_tids
from repro.workloads import ZipfGenerator
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    TpccGenerator,
    TpccMix,
    TpccScale,
    build_tpcc,
    tpcc_nbytes,
)
from repro.workloads.tpcc.generator import ROLLBACK_PROB, _nurand_customer
from repro.workloads.tpcc.schema import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
)
from repro.workloads.ycsb import WORKLOADS, build_ycsb, ycsb_delayed_columns
from repro.workloads.ycsb.generator import (
    OPS_PER_TXN,
    SCAN_LENGTH,
    YcsbGenerator,
)


class TestRandHelpers:
    def test_nurand_in_range(self):
        """The TPC-C generator's NURand(1023, 0, 2999) over every r1 and
        a spread of r2 (C = 463)."""
        assert CUSTOMERS_PER_DISTRICT == 3000
        for r1 in range(1024):
            for r2 in (0, 1, r1, 1023, 1024, 1500, 2047, 2048, 2998, 2999):
                c = _nurand_customer(r1, r2)
                assert c == ((r1 | r2) + 463) % 3000
                assert 0 <= c < 3000

    def test_zipf_bounds_and_skew(self):
        z = ZipfGenerator(1000, 2.5)
        rng = np.random.default_rng(1)
        sample = z.sample(rng, 10_000)
        assert sample.min() >= 0 and sample.max() < 1000
        # alpha=2.5: the top key dominates (paper's high-contention mode)
        assert (sample == 0).mean() > 0.5

    def test_zipf_zero_alpha_uniformish(self):
        z = ZipfGenerator(100, 0.0)
        rng = np.random.default_rng(1)
        sample = z.sample(rng, 20_000)
        counts = np.bincount(sample, minlength=100)
        assert counts.min() > 100  # roughly uniform

    def test_zipf_invalid(self):
        with pytest.raises(WorkloadError):
            ZipfGenerator(0, 1.0)
        with pytest.raises(WorkloadError):
            ZipfGenerator(10, -1.0)

    def test_zipf_deterministic_given_seed(self):
        z = ZipfGenerator(50, 1.2)
        a = z.sample(np.random.default_rng(7), 100)
        b = z.sample(np.random.default_rng(7), 100)
        assert (a == b).all()

    @pytest.mark.parametrize("alpha", [0.0, 1.2, 2.5])
    def test_zipf_sample_one_is_sample_of_one(self, alpha):
        """Same draw from the stream, same rank: interleaving
        ``sample_one`` with other draws reproduces ``sample(rng, 1)``."""
        z = ZipfGenerator(1000, alpha)
        one, arr = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(500):
            rank = z.sample_one(one)
            assert type(rank) is int
            assert rank == int(z.sample(arr, 1)[0])
            assert one.integers(0, 100) == arr.integers(0, 100)


class TestTpccSchemaAndLoader:
    def test_scale_key_encodings_unique(self):
        scale = TpccScale(warehouses=3, num_items=100)
        keys = {
            scale.customer_key(w, d, c)
            for w in range(3)
            for d in range(10)
            for c in range(5)
        }
        assert len(keys) == 3 * 10 * 5
        assert scale.stock_key(2, 99) == 2 * 100 + 99

    def test_loader_row_counts(self, tiny_tpcc):
        db, _, _ = tiny_tpcc
        assert db.table("warehouse").num_rows == 2
        assert db.table("district").num_rows == 20
        assert db.table("customer").num_rows == 60_000
        assert db.table("stock").num_rows == 4_000
        assert db.table("item").num_rows == 2_000
        assert db.table("orders").num_rows == 0

    def test_nbytes_estimate_matches_loaded(self, tiny_tpcc):
        db, _, _ = tiny_tpcc
        estimate = tpcc_nbytes(TpccScale(warehouses=2, num_items=2000))
        assert estimate == db.nbytes

    def test_secondary_indexes_present(self, tiny_tpcc):
        db, _, _ = tiny_tpcc
        assert list(db.table("orders").secondary) == ["o_c_key"]
        # Delivery takes its order ids resolved ahead of time
        assert not db.table("new_order").secondary


class TestTpccGenerator:
    def test_mix_fractions_validated(self):
        with pytest.raises(WorkloadError):
            TpccMix(neworder=0.9, payment=0.3)

    def test_neworder_percentage(self):
        mix = TpccMix.neworder_percentage(100)
        assert mix.neworder == 1.0 and mix.payment == 0.0

    def test_batch_respects_mix(self):
        scale = TpccScale(warehouses=2, num_items=1000)
        gen = TpccGenerator(scale, mix=TpccMix.neworder_percentage(0), seed=3)
        batch = gen.make_batch(50)
        assert all(t.procedure_name == "payment" for t in batch)

    def test_deterministic_given_seed(self):
        scale = TpccScale(warehouses=2, num_items=1000)
        a = TpccGenerator(scale, seed=5).make_batch(20)
        b = TpccGenerator(scale, seed=5).make_batch(20)
        assert [t.params for t in a] == [t.params for t in b]

    def test_order_ids_unique_across_batches(self):
        scale = TpccScale(warehouses=2, num_items=1000)
        gen = TpccGenerator(scale, mix=TpccMix.neworder_percentage(100), seed=5)
        ids = [t.params[3] for t in gen.make_batch(30) + gen.make_batch(30)]
        assert len(set(ids)) == len(ids)

    def test_invalid_batch_size(self):
        gen = TpccGenerator(TpccScale(2, 100))
        with pytest.raises(WorkloadError):
            gen.make_batch(0)


def _tpcc_batch_by_draws(gen: TpccGenerator, size: int) -> list[tuple]:
    """The draw-by-draw generator ``TpccGenerator`` batches its NumPy
    calls over, kept as the reference: one size-1 (or per-array) draw at
    a time, in the order a seed has always meant."""
    rng, scale, mix = gen._rng, gen.scale, gen.mix

    def one(lo, hi):
        return int(rng.integers(lo, hi, 1)[0])

    def pick_wd():
        return one(0, scale.warehouses), one(0, DISTRICTS_PER_WAREHOUSE)

    def nurand_customer():
        r1, r2 = one(0, 1024), one(0, CUSTOMERS_PER_DISTRICT)
        return ((r1 | r2) + 463) % CUSTOMERS_PER_DISTRICT

    def neworder():
        w, d = pick_wd()
        c_key = scale.customer_key(w, d, nurand_customer())
        n_items = one(5, 16)
        item_ids = rng.integers(0, scale.num_items, n_items)
        quantities = rng.integers(1, 11, n_items)
        o_id = gen._next_order_id
        gen._next_order_id += 1
        rollback = 1 if rng.random() < ROLLBACK_PROB else 0
        items = []
        for i in range(n_items):
            items += [int(item_ids[i]), int(quantities[i])]
        return "neworder", (w, d, c_key, o_id, rollback, *items)

    def payment():
        w, d = pick_wd()
        c_w, c_d = w, d
        if scale.warehouses > 1 and rng.random() < gen.remote_payment_prob:
            c_w = one(0, scale.warehouses - 1)
            if c_w >= w:
                c_w += 1
            c_d = one(0, DISTRICTS_PER_WAREHOUSE)
        if rng.random() < gen.hot_customer_prob:
            c = one(0, gen.hot_customers)
        else:
            c = nurand_customer()
        amount = one(100, 500_001)
        h_id = gen._next_history_id
        gen._next_history_id += 1
        return "payment", (w, d, scale.customer_key(c_w, c_d, c), amount, h_id)

    def orderstatus():
        w, d = pick_wd()
        return "orderstatus", (scale.customer_key(w, d, nurand_customer()),)

    def stocklevel():
        w, _ = pick_wd()
        threshold = one(10, 21)
        item_ids = rng.integers(0, scale.num_items, 20)
        return "stocklevel", (w, threshold, *(int(i) for i in item_ids))

    def delivery():
        w, _ = pick_wd()
        carrier = one(1, 11)
        if gen._next_order_id == 1_000_000:
            return "delivery", (w, carrier)
        o_ids = rng.integers(1_000_000, gen._next_order_id, 2)
        return "delivery", (w, carrier, *(int(o) for o in o_ids))

    makers = (neworder, payment, orderstatus, stocklevel, delivery)
    thresholds = np.cumsum(
        [mix.neworder, mix.payment, mix.orderstatus, mix.stocklevel, mix.delivery]
    )
    kinds = np.minimum(
        np.searchsorted(thresholds, rng.random(size), side="right"), 4
    )
    return [makers[int(kind)]() for kind in kinds]


class TestTpccGeneratorStream:
    """``TpccGenerator`` emits the draw-by-draw stream exactly.

    It replaces size-1 draws by scalar ones and runs of draws by one
    call with per-element bounds, which relies on NumPy consuming the
    PCG64 stream identically either way; a NumPy that stops doing so
    fails here, per transaction, before any benchmark request pool or
    committed BENCH row silently changes meaning."""

    FULL_MIX = TpccMix(
        neworder=0.45, payment=0.43, orderstatus=0.04, stocklevel=0.04,
        delivery=0.04,
    )
    SIZES = (257, 64, 1, 1000)  # consecutive batches per generator
    #: case -> (scale, mix, seed, first procedure, sha256 of the stream
    #: recorded from the draw-by-draw implementation)
    CASES = {
        "half-32wh-seed7": (
            TpccScale(32, 100_000), TpccMix.neworder_percentage(50), 7, "payment",
            "496d2316664cbdc05be4678b639a7741ebb763dbb7ac9c984ed052747fdee289",
        ),
        "half-32wh-seed23": (
            TpccScale(32, 100_000), TpccMix.neworder_percentage(50), 23, "payment",
            "91e3a724de102162170fbd12ea8e831bc96a72cd05b86a00d016eba69015c7d1",
        ),
        "full-mix-8wh": (
            TpccScale(8, 20_000), FULL_MIX, 7, "payment",
            "b1d4b812fa07bbb7154b5546827764b93654f75fa6954cc42119ce4bae9e9d1c",
        ),
        # one warehouse: the remote-payment branch never draws
        "full-mix-1wh": (
            TpccScale(1, 1_000), FULL_MIX, 7, "payment",
            "f9dfd5edae742aa399459e0add8aea43d5b0c5f3deee58b41591601efcdf4de5",
        ),
        # Delivery before the first NewOrder: no order ids to sample yet
        "delivery-first": (
            TpccScale(4, 1_000),
            TpccMix(neworder=0.2, payment=0.0, delivery=0.8), 5, "delivery",
            "6fd0c1fb65b140e4bca9951e9cb0522569d35828e6a8a8dffb6879dd30b6349c",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_draw_by_draw_stream_and_its_golden_hash(self, case):
        scale, mix, seed, first, golden = self.CASES[case]
        fast = TpccGenerator(scale, mix=mix, seed=seed)
        slow = TpccGenerator(scale, mix=mix, seed=seed)
        h = hashlib.sha256()
        for size in self.SIZES:
            batch = fast.make_batch(size)
            expected = _tpcc_batch_by_draws(slow, size)
            assert len(batch) == len(expected) == size
            for position, (t, spec) in enumerate(zip(batch, expected)):
                assert (t.procedure_name, t.params) == spec, (size, position)
                h.update(repr((t.procedure_name, t.params, t.tid)).encode())
            assert all(type(p) is int for t in batch for p in t.params)
            if size == self.SIZES[0]:
                assert batch[0].procedure_name == first
        counters = (fast._next_order_id, fast._next_history_id)
        assert counters == (slow._next_order_id, slow._next_history_id)
        h.update(repr(counters).encode())
        assert h.hexdigest() == golden


class TestTpccProcedures:
    def test_neworder_effects(self, tiny_tpcc):
        db, registry, _ = tiny_tpcc
        ctx = BufferedContext(db)
        scale = TpccScale(warehouses=2, num_items=2000)
        s_key = scale.stock_key(0, 10)
        before = db.table("stock").read(db.table("stock").lookup(s_key), "s_quantity")
        registry.get("neworder")(ctx, 0, 0, scale.customer_key(0, 0, 5), 999, 0, 10, 3)
        from repro.txn import apply_local_sets

        apply_local_sets(db, ctx.local)
        stock = db.table("stock")
        after = stock.read(stock.lookup(s_key), "s_quantity")
        assert after in (before - 3, before - 3 + 91)
        assert stock.read(stock.lookup(s_key), "s_ytd") == 3
        assert db.table("orders").get_row(999) is not None
        assert db.table("new_order").get_row(999) is not None

    def test_neworder_rollback_flag(self, tiny_tpcc):
        db, registry, _ = tiny_tpcc
        from repro.errors import TransactionAborted

        ctx = BufferedContext(db)
        with pytest.raises(TransactionAborted):
            registry.get("neworder")(ctx, 0, 0, 5, 998, 1, 10, 3)

    def test_payment_effects(self, tiny_tpcc):
        db, registry, _ = tiny_tpcc
        scale = TpccScale(warehouses=2, num_items=2000)
        c_key = scale.customer_key(1, 2, 7)
        ctx = BufferedContext(db)
        registry.get("payment")(ctx, 1, 2, c_key, 250, 12345)
        from repro.txn import apply_local_sets

        w_before = db.table("warehouse").read(1, "w_ytd")
        apply_local_sets(db, ctx.local)
        assert db.table("warehouse").read(1, "w_ytd") == w_before + 250
        cust = db.table("customer")
        assert cust.read(cust.lookup(c_key), "c_balance") == -1000 - 250
        assert db.table("history").get_row(12345) is not None

    def test_orderstatus_reads_latest_order(self, tiny_tpcc):
        db, registry, _ = tiny_tpcc
        scale = TpccScale(warehouses=2, num_items=2000)
        c_key = scale.customer_key(0, 0, 1)
        ctx = BufferedContext(db)
        registry.get("neworder")(ctx, 0, 0, c_key, 777, 0, 4, 2)
        from repro.txn import apply_local_sets

        apply_local_sets(db, ctx.local)
        ctx2 = BufferedContext(db)
        registry.get("orderstatus")(ctx2, c_key)
        assert len(ctx2.ops) >= 3  # customer + header + lines

    def test_stocklevel_counts(self, tiny_tpcc):
        db, registry, _ = tiny_tpcc
        ctx = BufferedContext(db)
        registry.get("stocklevel")(ctx, 0, 15, 1, 2, 3)
        assert len(ctx.ops) == 3

    def test_delivery_updates_customer(self, tiny_tpcc):
        db, registry, _ = tiny_tpcc
        scale = TpccScale(warehouses=2, num_items=2000)
        c_key = scale.customer_key(0, 0, 2)
        ctx = BufferedContext(db)
        registry.get("neworder")(ctx, 0, 0, c_key, 555, 0, 9, 1)
        from repro.txn import apply_local_sets

        apply_local_sets(db, ctx.local)
        ctx2 = BufferedContext(db)
        registry.get("delivery")(ctx2, 0, 3, 555)
        apply_local_sets(db, ctx2.local)
        orders = db.table("orders")
        assert orders.read(orders.lookup(555), "o_carrier_id") == 3
        cust = db.table("customer")
        assert cust.read(cust.lookup(c_key), "c_delivery_cnt") == 1


class TestYcsb:
    def test_build_and_run_workload_a(self):
        db, registry, gen = build_ycsb(2000, workload="a", seed=3)
        config = LTPGConfig(
            batch_size=64, delayed_columns=ycsb_delayed_columns()
        )
        engine = LTPGEngine(db, registry, config)
        batch = gen.make_batch(64)
        assign_tids(batch, 0)
        result = engine.run_batch(batch)
        # commutative updates + field-separated reads: everything commits
        assert result.stats.committed == 64

    def test_update_contention_without_commutativity(self):
        db, registry, gen = build_ycsb(
            2000, workload="a", seed=3, commutative_updates=False
        )
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=64))
        batch = gen.make_batch(64)
        assign_tids(batch, 0)
        result = engine.run_batch(batch)
        # alpha=2.5 focuses RMWs on the hottest key: most txns abort
        assert result.stats.committed < 16

    def test_workload_c_read_only(self):
        db, registry, gen = build_ycsb(1000, workload="c", seed=3)
        batch = gen.make_batch(20)
        codes = {p for t in batch for p in t.params[::2]}
        assert codes == {0}

    def test_workload_e_scans(self):
        db, registry, gen = build_ycsb(1000, workload="e", seed=3)
        batch = gen.make_batch(20)
        codes = {p for t in batch for p in t.params[::2]}
        assert 3 in codes
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=20))
        assign_tids(batch, 0)
        result = engine.run_batch(batch)
        assert result.stats.committed == 20

    def test_workload_d_inserts_fresh_keys(self):
        db, registry, gen = build_ycsb(500, workload="d", seed=3)
        batch = gen.make_batch(50)
        inserted = [
            t.params[2 * j + 1]
            for t in batch
            for j in range(len(t.params) // 2)
            if t.params[2 * j] == 2
        ]
        assert inserted, "workload D must insert"
        assert all(k >= 500 for k in inserted)
        assert len(set(inserted)) == len(inserted)

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            build_ycsb(1000, workload="z")

    def test_scan_length_bound(self):
        with pytest.raises(WorkloadError):
            build_ycsb(5, workload="e")

    def test_all_five_workloads_defined(self):
        assert set(WORKLOADS) == {"a", "b", "c", "d", "e"}


def _ycsb_batch_by_loop(gen: YcsbGenerator, size: int) -> list[tuple]:
    """The per-op loop ``YcsbGenerator.make_batch`` vectorises, kept as
    the reference: same draws, one op at a time."""
    rng, wl = gen._rng, gen.workload
    latest_limit = gen._next_insert_key
    thresholds = np.cumsum([wl.read, wl.update, wl.insert, wl.scan])
    total_ops = size * OPS_PER_TXN
    codes = np.minimum(
        np.searchsorted(thresholds, rng.random(total_ops), side="right"), 3
    )
    ranks = gen.zipf.sample(rng, total_ops)
    out, pos = [], 0
    for _ in range(size):
        flat: list[int] = []
        for _ in range(OPS_PER_TXN):
            code, rank = int(codes[pos]), int(ranks[pos])
            pos += 1
            if code == 2:
                key = gen._next_insert_key
                gen._next_insert_key += 1
            elif code == 3:
                key = min(rank, gen.num_records - SCAN_LENGTH)
            elif wl.read_latest and code == 0:
                key = max(latest_limit - 1 - rank, 0)
            else:
                key = rank
            if code == 1 and not gen.commutative_updates:
                code = 4
            flat.extend((code, key))
        out.append(tuple(flat))
    return out


class TestYcsbGeneratorStream:
    """The vectorised generator emits the per-op loop's exact stream."""

    SIZES = (257, 64, 1)  # three consecutive batches per generator

    @staticmethod
    def _generator(name, commutative):
        return YcsbGenerator(
            5000, workload=name, zipf_alpha=0.9, seed=31,
            commutative_updates=commutative,
        )

    @pytest.mark.parametrize("commutative", [True, False])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_matches_the_per_op_loop(self, name, commutative):
        fast = self._generator(name, commutative)
        slow = self._generator(name, commutative)
        for size in self.SIZES:
            batch = fast.make_batch(size)
            assert [t.params for t in batch] == _ycsb_batch_by_loop(slow, size)
            assert all(type(p) is int for t in batch for p in t.params)
            assert all(
                (t.procedure_name, t.tid) == ("ycsb_txn", -1) for t in batch
            )
        assert fast._next_insert_key == slow._next_insert_key

    def test_golden_hash_of_every_workload(self):
        """Pinned from the loop implementation: a seed keeps meaning the
        same requests across versions (the benchmark's request pool and
        every committed BENCH row depend on it)."""
        h = hashlib.sha256()
        for name in sorted(WORKLOADS):
            for commutative in (True, False):
                gen = self._generator(name, commutative)
                for size in self.SIZES:
                    for t in gen.make_batch(size):
                        h.update(
                            repr((t.procedure_name, t.params, t.tid)).encode()
                        )
                h.update(str(gen._next_insert_key).encode())
        assert h.hexdigest() == (
            "ae2acd03e717e7e3ee35817548df0f42e0985b187f4eee315864b0fd32abc96d"
        )

    def test_empty_batch(self):
        assert self._generator("a", True).make_batch(0) == []
