"""LTPG on TPC-C: end-to-end integration, paper-shape assertions."""

from __future__ import annotations

import pytest

from repro.bench import ltpg_config, steady_state_run
from repro.core import LTPGEngine
from repro.txn import assign_tids
from repro.validate import replay_in_witness_order
from repro.workloads.tpcc import TpccMix, build_tpcc


@pytest.fixture(scope="module")
def setup():
    return build_tpcc(warehouses=2, num_items=5000, seed=13)


def fresh_engine(db, registry, batch_size=256, optimized=True):
    config = ltpg_config(batch_size)
    if not optimized:
        config = config.without_optimizations()
    return LTPGEngine(db.copy(), registry, config)


class TestTpccEndToEnd:
    def test_mixed_batch_commits_and_updates_state(self, setup):
        db, registry, gen = setup
        engine = fresh_engine(db, registry)
        batch = gen.make_batch(256)
        assign_tids(batch, 0)
        result = engine.run_batch(batch)
        assert result.stats.committed > 0
        assert engine.database.table("orders").num_rows > 0
        assert engine.database.table("history").num_rows > 0

    def test_committed_equal_serial_witness_replay(self, setup):
        db, registry, gen = setup
        engine = fresh_engine(db, registry)
        batch = gen.make_batch(128)
        assign_tids(batch, 0)
        result = engine.run_batch(batch)
        reference = db.copy()
        replay_in_witness_order(reference, registry, result)
        assert reference.state_digest() == engine.database.state_digest()

    def test_payment_collapse_without_optimizations(self, setup):
        db, registry, gen = setup
        opt = fresh_engine(db, registry, optimized=True)
        raw = fresh_engine(db, registry, optimized=False)
        batch = gen.make_batch(512)
        assign_tids(batch, 0)
        import copy

        r_opt = opt.run_batch([copy.deepcopy(t) for t in batch])
        r_raw = raw.run_batch([copy.deepcopy(t) for t in batch])
        pay_opt = r_opt.stats.commit_rate_of("payment")
        pay_raw = r_raw.stats.commit_rate_of("payment")
        # Table VI shape: Payment commits collapse to ~warehouses/batch
        # without the high-contention optimizations.
        assert pay_raw < 0.1
        assert pay_opt > 5 * pay_raw
        # NewOrder is stock-limited either way (roughly unchanged).
        no_opt = r_opt.stats.commit_rate_of("neworder")
        no_raw = r_raw.stats.commit_rate_of("neworder")
        assert abs(no_opt - no_raw) < 0.15

    def test_determinism_across_runs(self, setup):
        db, registry, gen = setup
        digests = []
        batch = gen.make_batch(128)
        for _ in range(2):
            engine = fresh_engine(db, registry)
            import copy

            b = [copy.deepcopy(t) for t in batch]
            assign_tids(b, 0)
            engine.run_batch(b)
            digests.append(engine.database.state_digest())
        assert digests[0] == digests[1]

    def test_w_ytd_conserved_under_delayed_updates(self, setup):
        """Every committed payment's amount lands in w_ytd exactly once."""
        db, registry, gen = build_tpcc(
            warehouses=2, num_items=5000, seed=13,
            mix=TpccMix.neworder_percentage(0),
        )
        engine = fresh_engine(db, registry)
        batch = gen.make_batch(200)
        assign_tids(batch, 0)
        before = sum(db.table("warehouse").read(w, "w_ytd") for w in range(2))
        result = engine.run_batch(batch)
        after = sum(
            engine.database.table("warehouse").read(w, "w_ytd") for w in range(2)
        )
        committed_amount = sum(t.params[3] for t in result.committed)
        assert after - before == committed_amount

    def test_steady_state_runner_tops_up_batches(self, setup):
        db, registry, gen = setup
        engine = fresh_engine(db, registry, batch_size=128)
        r = steady_state_run(engine, gen, 128, 4)
        assert r.run.num_batches == 4
        assert all(b.num_txns == 128 for b in r.run.batches)
        assert r.tps > 0

    def test_full_tpcc_mix_runs(self):
        db, registry, gen = build_tpcc(
            warehouses=2,
            num_items=2000,
            seed=5,
            mix=TpccMix(
                neworder=0.44,
                payment=0.44,
                orderstatus=0.04,
                stocklevel=0.04,
                delivery=0.04,
            ),
        )
        engine = LTPGEngine(db, registry, ltpg_config(256))
        r = steady_state_run(engine, gen, 256, 3)
        assert r.run.total_committed > 0
        # all five procedure types were admitted
        procs = set()
        for b in r.run.batches:
            procs |= set(b.total_by_proc)
        assert procs == {
            "neworder", "payment", "orderstatus", "stocklevel", "delivery",
        }


def test_tracked_objects_stay_flat_across_neworder_batches():
    """Steady NewOrder batches add rows, not objects the cyclic
    collector walks: the orders index is an int-only dict, so after
    warm-up the tracked-object count may grow by a small constant per
    batch (the batch log's record), not by one per new customer key."""
    import gc

    from repro.txn import BatchScheduler, drive

    db, registry, gen = build_tpcc(
        warehouses=2, num_items=2000, mix=TpccMix.neworder_percentage(100), seed=7
    )
    engine = LTPGEngine(db, registry, ltpg_config(256))
    counts = []
    with engine:
        for _ in drive(engine, BatchScheduler(256), gen.make_batch, max_batches=11):
            gc.collect()
            counts.append(len(gc.get_objects()))
    grown = counts[-1] - counts[2]
    assert engine.database.table("orders").num_rows > 100
    assert grown <= 2 * (len(counts) - 3), counts
