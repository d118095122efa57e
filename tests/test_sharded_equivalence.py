"""Differential tests for sharding (:mod:`repro.shard`).

``LTPGConfig(shards=N)`` must be *byte-identical* to ``shards=1`` for
every workload and shard count: per-transaction
statuses, abort reasons, op streams, and the final database digest.
(Simulated phase timings are exempt — sharded conflict registration
arrives as per-shard kernel sub-passes — which is exactly why these
tests pin the full outcome surface instead.)

Also covered here: the deterministic router's edge cases (all-multi-home
batches, empty shards, more shards than warehouses), the Calvin-style
sequencer, per-shard metrics, and config validation.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from helpers import build_bank, observe_cell
from repro.analysis.workload import WORKLOAD_NAMES, build_workload

from repro.baselines.calvin import deterministic_order
from repro.core import ConflictLog, LTPGConfig, LTPGEngine
from repro.errors import ConfigError
from repro.serve.api import serve_run
from repro.shard import BoundPartition, TableRule, Unpartitioned, resolve_spec
from repro.txn import Transaction
from repro.workloads.smallbank import build_smallbank, smallbank_partition_spec
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    SPLIT_COLUMNS,
    TpccMix,
    build_tpcc,
    tpcc_partition_spec,
)
from repro.workloads.ycsb import build_ycsb
from repro.workloads.ycsb.generator import SCAN_LENGTH, ycsb_delayed_columns

pytestmark = pytest.mark.sharded

SHARD_COUNTS = (1, 2, 4)

FULL_MIX = TpccMix(
    neworder=0.4, payment=0.3, orderstatus=0.1, stocklevel=0.1, delivery=0.1
)


def _observe(engine, batches):
    """Run ``batches`` (lists of (name, params) specs) and capture the
    outcome surface; closes the engine."""
    out = []
    with engine:
        for bi, specs in enumerate(batches):
            batch = [
                Transaction(n, p, tid=bi * 10_000 + i)
                for i, (n, p) in enumerate(specs)
            ]
            result = engine.run_batch(batch)
            out.append(
                {
                    "committed": result.stats.committed,
                    "aborted": result.stats.aborted,
                    "logic_aborted": result.stats.logic_aborted,
                    "statuses": [t.status for t in batch],
                    "reasons": [t.abort_reason for t in batch],
                    "ops": [t.ops.raw for t in batch],
                    "result_tids": (
                        [t.tid for t in result.committed],
                        [t.tid for t in result.aborted],
                        [t.tid for t in result.logic_aborted],
                    ),
                    "abort_reasons": dict(result.stats.abort_reasons),
                    "by_proc": dict(result.stats.committed_by_proc),
                    "digest": engine.database.state_digest(),
                }
            )
    return out


def _across_shard_counts(build, batches, counts=SHARD_COUNTS, **config_kwargs):
    """Assert the default engine == LTPGEngine(shards=n) for each n."""
    reference = _observe(build(dict(**config_kwargs)), batches)
    for shards in counts:
        engine = build(dict(shards=shards, **config_kwargs))
        assert _observe(engine, batches) == reference, (
            f"divergence at {shards} shards"
        )


def _tpcc_build(config_kwargs):
    db, registry, _ = build_tpcc(
        warehouses=2, num_items=2000, mix=FULL_MIX, seed=7
    )
    config = LTPGConfig(
        batch_size=256,
        batched_exec=True,
        delayed_update=True,
        delayed_columns=DELAYED_COLUMNS,
        split_flags=True,
        split_columns=SPLIT_COLUMNS,
        **config_kwargs,
    )
    return LTPGEngine(db, registry, config)


def _tpcc_batches(n=3, size=256):
    _, _, gen = build_tpcc(warehouses=2, num_items=2000, mix=FULL_MIX, seed=7)
    return [
        [(t.procedure_name, t.params) for t in gen.make_batch(size)]
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Byte-identity sweep: all three workloads, shards in {1, 2, 4}
# ---------------------------------------------------------------------------
def test_tpcc_identical_across_shard_counts():
    # 4 shards > 2 warehouses: two shards own no warehouse at all
    _across_shard_counts(_tpcc_build, _tpcc_batches())


@pytest.mark.parametrize("workload", ["a", "e"])
def test_ycsb_identical_across_shard_counts(workload):
    kwargs = dict(
        num_records=2000, workload=workload, zipf_alpha=1.2, seed=5
    )
    _, _, gen = build_ycsb(**kwargs)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(256)]
        for _ in range(3)
    ]

    def build(config_kwargs):
        db, registry, _ = build_ycsb(**kwargs)
        config = LTPGConfig(
            batch_size=256,
            batched_exec=True,
            delayed_update=True,
            delayed_columns=ycsb_delayed_columns(),
            **config_kwargs,
        )
        return LTPGEngine(db, registry, config)

    _across_shard_counts(build, batches)


def test_smallbank_identical_across_shard_counts():
    _, _, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(256)]
        for _ in range(3)
    ]

    def build(config_kwargs):
        db, registry, _ = build_smallbank(
            num_accounts=500, zipf_alpha=1.2, seed=3
        )
        config = LTPGConfig(
            batch_size=256, batched_exec=True,
            **config_kwargs,
        )
        return LTPGEngine(db, registry, config)

    _across_shard_counts(build, batches)


def test_run_transactions_with_retries_identical():
    """High contention forces aborts and requeues: the scheduler
    composition across batches must match the unsharded engine."""

    def run(shards):
        db, registry, gen = build_smallbank(
            num_accounts=200, zipf_alpha=1.5, seed=11
        )
        config = LTPGConfig(
            batch_size=64, batched_exec=True,
            shards=shards,
        )
        with LTPGEngine(db, registry, config) as engine:
            txns = gen.make_batch(256)
            for i, t in enumerate(txns):
                t.tid = i
            run_stats = engine.run_transactions(txns)
        return (
            db.state_digest(),
            run_stats.total_committed,
            [t.status for t in txns],
            [(b.committed, b.aborted, b.logic_aborted) for b in run_stats.batches],
        )

    reference = run(1)
    for shards in (2, 4):
        assert run(shards) == reference


# ---------------------------------------------------------------------------
# Router edge cases
# ---------------------------------------------------------------------------
def test_all_multi_home_batch():
    """Every transaction crosses the shard boundary: the whole batch is
    sequenced Calvin-style and still matches the reference."""
    specs = [
        ("send_payment", (i, 499 - i, 5)) for i in range(100)
    ] + [
        ("amalgamate", (i, 400 + i)) for i in range(50)
    ]

    def build(config_kwargs):
        db, registry, _ = build_smallbank(num_accounts=500, seed=3)
        config = LTPGConfig(
            batch_size=256, batched_exec=True,
            **config_kwargs,
        )
        return LTPGEngine(db, registry, config)

    _across_shard_counts(build, [specs], counts=(2,))

    db, registry, _ = build_smallbank(num_accounts=500, seed=3)
    engine = LTPGEngine(
        db, registry,
        LTPGConfig(batch_size=256, batched_exec=True, shards=2),
    )
    batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
    result = engine.run_batch(batch)
    assert result.stats.multi_home_fraction == 1.0


def test_empty_shard_batch():
    """All transactions live on shard 0; shards 1-3 see zero lanes."""
    specs = [("deposit_checking", (i % 50, 7)) for i in range(64)]

    def build(config_kwargs):
        db, registry, _ = build_smallbank(num_accounts=500, seed=3)
        config = LTPGConfig(
            batch_size=64, batched_exec=True,
            **config_kwargs,
        )
        return LTPGEngine(db, registry, config)

    _across_shard_counts(build, [specs], counts=(4,))

    db, registry, _ = build_smallbank(num_accounts=500, seed=3)
    engine = LTPGEngine(
        db, registry,
        LTPGConfig(batch_size=64, batched_exec=True, shards=4),
    )
    batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
    result = engine.run_batch(batch)
    assert result.stats.multi_home_fraction == 0.0
    # 64 lanes on one of four shards: max/mean = 4
    assert result.stats.shard_balance == pytest.approx(4.0)


def test_tpcc_multi_home_payments_exercised():
    """TPC-C's 15% remote payments make the multi-home path real."""
    db, registry, gen = build_tpcc(
        warehouses=2, num_items=2000, mix=FULL_MIX, seed=7
    )
    config = LTPGConfig(
        batch_size=256, batched_exec=True, shards=2
    )
    with LTPGEngine(db, registry, config) as engine:
        fractions = []
        for b in range(3):
            batch = gen.make_batch(256)
            for i, t in enumerate(batch):
                t.tid = b * 1000 + i
            fractions.append(
                engine.run_batch(batch).stats.multi_home_fraction
            )
    assert max(fractions) > 0


def test_empty_batch_delegates():
    db, registry, _ = build_smallbank(num_accounts=100, seed=1)
    engine = LTPGEngine(
        db, registry,
        LTPGConfig(batch_size=8, batched_exec=True, shards=2),
    )
    result = engine.run_batch([])
    assert result.stats.num_txns == 0


def test_shards_one_is_plain_engine():
    """No partition spec is resolved (an unknown workload is fine) and
    no registration is routed."""
    db, registry = build_bank()
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=8))
    assert isinstance(engine.partition, Unpartitioned)
    assert type(engine.conflict_log) is ConflictLog
    with pytest.raises(ConfigError, match="partition spec"):
        LTPGEngine(db, registry, LTPGConfig(batch_size=8, shards=2))


# ---------------------------------------------------------------------------
# The partition map and the sequencer
# ---------------------------------------------------------------------------
def test_deterministic_order_is_stable_tid_sort():
    txns = [
        Transaction("balance", (i,), tid=tid)
        for i, tid in enumerate([5, 1, 3, 1, 2])
    ]
    ordered = deterministic_order(txns)
    assert [t.tid for t in ordered] == [1, 1, 2, 3, 5]
    # stable: the two tid=1 entries keep their admission order
    assert ordered[0].params[0] == 1 and ordered[1].params[0] == 3


def test_block_rule_clamps_appended_keys():
    db, _, _ = build_smallbank(num_accounts=100, seed=1)
    part = BoundPartition(smallbank_partition_spec(), db, 4)
    # 100 accounts, 4 shards: blocks of 25
    assert part.owner_key("smallbank", 0) == 0
    assert part.owner_key("smallbank", 24) == 0
    assert part.owner_key("smallbank", 25) == 1
    assert part.owner_key("smallbank", 99) == 3
    # keys appended past the loaded range stay on the last shard
    assert part.owner_key("smallbank", 100) == 3
    assert part.owner_key("smallbank", 10_000) == 3
    owners = part.owner_keys(0, np.array([0, 25, 50, 75, 99, 500]))
    assert owners.tolist() == [0, 1, 2, 3, 3, 3]


def test_tpcc_rules_recover_the_warehouse():
    db, _, _ = build_tpcc(warehouses=4, num_items=2000, seed=7)
    part = BoundPartition(tpcc_partition_spec(), db, 2)
    scale_items = db.table("item").num_rows
    for w in range(4):
        assert part.owner_key("warehouse", w) == w % 2
        assert part.owner_key("district", w * 10 + 3) == w % 2
        assert part.owner_key("customer", (w * 10 + 3) * 3000 + 17) == w % 2
        assert part.owner_key("stock", w * scale_items + 99) == w % 2
    profile = part.profile()
    assert profile["warehouse"] == [2, 2]
    assert profile["district"] == [20, 20]
    assert sum(profile["customer"]) == 4 * 10 * 3000


def test_tpcc_classify_remote_payment_is_multi_home():
    db, _, _ = build_tpcc(warehouses=4, num_items=2000, seed=7)
    part = BoundPartition(tpcc_partition_spec(), db, 4)
    local = Transaction("payment", (1, 0, (1 * 10 + 0) * 3000 + 5, 100, 0))
    remote = Transaction("payment", (1, 0, (2 * 10 + 0) * 3000 + 5, 100, 0))
    assert part.classify(local) == (1,)
    assert part.classify(remote) == (1, 2)
    unknown = Transaction("mystery", (0,))
    assert part.classify(unknown) == (0, 1, 2, 3)


def test_ycsb_classify_scan_spans_shards():
    db, _, _ = build_ycsb(num_records=2000, workload="e", seed=5)
    part = BoundPartition(resolve_spec(db), db, 2)
    assert part.spec.name == "ycsb"
    # block = 1000; a scan straddling the boundary is multi-home
    boundary = 1000 - SCAN_LENGTH // 2
    txn = Transaction("ycsb_txn", (3, boundary))
    assert part.classify(txn) == (0, 1)
    assert part.classify(Transaction("ycsb_txn", (3, 0))) == (0,)
    assert part.classify(Transaction("ycsb_txn", (0, 1999, 1, 1500))) == (1,)


def test_resolve_spec_auto_detects_workloads():
    db, _, _ = build_tpcc(warehouses=1, num_items=2000, seed=7)
    assert resolve_spec(db).name == "tpcc"
    db, _, _ = build_smallbank(num_accounts=10, seed=1)
    assert resolve_spec(db).name == "smallbank"


def test_table_rule_validation():
    with pytest.raises(ConfigError, match="rule form"):
        TableRule("hash")
    with pytest.raises(ConfigError, match="divisor"):
        TableRule("div_mod", 0)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------
def test_zero_shards_raises():
    with pytest.raises(ConfigError, match="shards"):
        LTPGConfig(shards=0)


def test_directly_built_engine_runs_sharded():
    """``LTPGConfig(shards=2)`` needs no wrapper and no factory: the
    engine partitions its own stages."""
    _, _, gen = build_smallbank(num_accounts=100, seed=1)
    specs = [(t.procedure_name, t.params) for t in gen.make_batch(64)]

    def run(**config_kwargs):
        db, registry, _ = build_smallbank(num_accounts=100, seed=1)
        engine = LTPGEngine(db, registry, LTPGConfig(**config_kwargs))
        return engine, _observe(engine, [specs])

    sharded, observed = run(shards=2)
    assert isinstance(sharded.partition, BoundPartition)
    assert sharded.conflict_log.registrations_by_shard.sum() > 0
    assert observed == run()[1]


# ---------------------------------------------------------------------------
# Per-shard observability
# ---------------------------------------------------------------------------
def test_sharded_metrics_surface():
    db, registry, gen = build_tpcc(
        warehouses=2, num_items=2000, mix=FULL_MIX, seed=7
    )
    config = LTPGConfig(
        batch_size=256, batched_exec=True,
        shards=2, trace=True,
    )
    with LTPGEngine(db, registry, config) as engine:
        batch = gen.make_batch(256)
        for i, t in enumerate(batch):
            t.tid = i
        result = engine.run_batch(batch)
        snap = engine.metrics.snapshot()
    assert 0 < result.stats.multi_home_fraction < 1
    assert result.stats.shard_balance >= 1.0
    assert result.stats.sequencer_stall_ns > 0
    assert snap["gauges"]["multi_home_fraction"]["last"] == pytest.approx(
        result.stats.multi_home_fraction
    )
    assert snap["gauges"]["shard_balance"]["last"] == pytest.approx(
        result.stats.shard_balance
    )
    assert snap["counters"]["sequencer.stall_ns"] > 0
    lanes = snap["histograms"]["shard.lanes"]
    assert set(lanes) == {"s0", "s1"}
    assert sum(lanes.values()) == 256
    assert engine.last_host_phase_s["sequencer"] > 0
    summary = engine.conflict_log.registrations_by_shard
    assert summary.sum() > 0


def test_metrics_summary_has_shard_block():
    from repro.core.stats import BatchStats, RunStats

    run = RunStats()
    run.add(
        BatchStats(
            0, 10, 10, 0,
            multi_home_fraction=0.2, shard_balance=1.5,
            sequencer_stall_ns=1000,
        )
    )
    block = run.metrics_summary()["shard"]
    assert block == {
        "mean_multi_home_fraction": 0.2,
        "max_balance": 1.5,
        "sequencer_stall_ns": 1000,
    }


# ---------------------------------------------------------------------------
# Cross-product: shards x device residency, against the test oracle
# (``ReferenceEngine``: unsharded, host-only, sharing neither collector
# nor write-back with the engine under test), so agreement between two
# cells of the same pipeline is never the evidence; ``observe_cell``
# also replays every batch of every cell serially in witness order
# ---------------------------------------------------------------------------
BACKEND_CELLS = {
    "numpy": {},
    # a device backend is resident by definition (the key keeps its
    # name so the test ids do not move)
    "mockgpu-resident": dict(array_backend="mockgpu"),
}


@functools.lru_cache(maxsize=None)
def _reference_cell(workload):
    return observe_cell(workload, reference=True)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize(
    "backend, shards",
    [
        (backend, shards)
        for backend in BACKEND_CELLS
        for shards in SHARD_COUNTS
    ],
)
def test_shards_by_residency_cells_match_unsharded_numpy(workload, backend, shards):
    cell = observe_cell(workload, shards=shards, **BACKEND_CELLS[backend])
    assert cell == _reference_cell(workload)


@pytest.mark.parametrize(
    "workload, backend, shards",
    [
        ("smallbank", backend, shards)
        for backend in BACKEND_CELLS
        for shards in SHARD_COUNTS
    ]
    + [("tpcc", "numpy", 2), ("tpcc", "mockgpu-resident", 1)],
)
def test_twin_less_cells_match_unsharded_numpy(workload, backend, shards):
    """``batched_exec=False`` (every procedure treated as twin-less, so
    every lane is a scalar lane) next to shards, a device backend and
    residency: each pairing used to be a ``ConfigError``, and is the
    same pipeline."""
    cell = observe_cell(
        workload, batched_exec=False, shards=shards, **BACKEND_CELLS[backend]
    )
    assert cell == _reference_cell(workload)


# ---------------------------------------------------------------------------
# Builders that take config overrides honour ``shards``
# ---------------------------------------------------------------------------
def test_served_run_with_shards_is_sharded_and_ends_on_unsharded_digest():
    """``WorkloadSetup.engine`` (what ``simulate_serve``, ``python -m
    repro.trace`` and the analysis CLI build with) used to construct a
    bare engine and serve ``shards=2`` unsharded."""

    def served(shards):
        setup = build_workload("tpcc")
        with setup.engine(
            batch_size=64, sanitize=False, batched_exec=True, trace=True,
            shards=shards,
        ) as engine:
            # size cuts: batch membership must not depend on simulated
            # timings, which sharding changes
            report = serve_run(
                engine, setup.generator, policy="size", num_requests=256
            )
            balance = engine.metrics.snapshot()["gauges"].get("shard_balance")
        return report.committed, setup.database.state_digest(), balance

    committed, digest, balance = served(2)
    assert balance is not None and balance["last"] > 0
    assert (committed, digest, None) == served(1)
