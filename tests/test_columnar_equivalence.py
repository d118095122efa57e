"""Differential tests: the columnar collector vs the test oracle's per-op loop.

The engine's execute phase collects a batch's reservations and costs
with NumPy over one flat op matrix; ``reference_engine.ReferenceEngine``
walks the same ops one ``OpRecord`` at a time, the way the seed did.
They are two implementations of the *same* algorithm, so every
observable — per-transaction statuses and abort reasons, the full
:class:`BatchStats` including simulated times, and the final database
state — must agree byte for byte.  These tests are the contract that
lets the wall-clock harness (``BENCH_wallclock.json``) claim its numbers
are host time and nothing else.

The engine cell here says ``batched_exec=False``: every lane runs its
scalar procedure, as every lane of the oracle does, so what differs is
the collector and the write-back.  The vectorized twins are compared
against this same pair in ``test_batched_equivalence.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_bank
from reference_engine import ReferenceEngine
from repro.bench import ltpg_config, steady_state_run, tpcc_bench
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import TransactionError
from repro.txn import Transaction
from repro.txn.decompose import plan, plan_arrays
from repro.txn.operations import OpColumns
from repro.workloads.ycsb import build_ycsb


def _stats_snapshot(stats) -> dict:
    """Every BatchStats field, in comparable (plain) form."""
    return {
        "batch_index": stats.batch_index,
        "num_txns": stats.num_txns,
        "committed": stats.committed,
        "aborted": stats.aborted,
        "logic_aborted": stats.logic_aborted,
        "latency_ns": stats.latency_ns,
        "transfer_ns": stats.transfer_ns,
        "rwset_ns": stats.rwset_ns,
        "phase_ns": dict(stats.phase_ns),
        "committed_by_proc": dict(stats.committed_by_proc),
        "total_by_proc": dict(stats.total_by_proc),
        "abort_reasons": dict(stats.abort_reasons),
        "commit_attempts": dict(stats.commit_attempts),
        "registered_reads": stats.registered_reads,
        "registered_writes": stats.registered_writes,
        "max_atomic_chain": stats.max_atomic_chain,
    }


def _run_path(build_engine, make_batches, oracle: bool):
    """Run identical batches through the engine (``batched_exec=False``)
    or the oracle; return observables."""
    engine = build_engine(ReferenceEngine if oracle else LTPGEngine)
    out = []
    for specs in make_batches():
        batch = [
            Transaction(name, params, tid=i)
            for i, (name, params) in enumerate(specs)
        ]
        result = engine.run_batch(batch)
        out.append(
            {
                "stats": _stats_snapshot(result.stats),
                "statuses": [t.status for t in batch],
                "abort_reasons": [t.abort_reason for t in batch],
                "committed_tids": sorted(t.tid for t in result.committed),
            }
        )
    out.append({"digest": engine.database.state_digest()})
    return out


def _assert_paths_agree(build_engine, make_batches):
    columnar = _run_path(build_engine, make_batches, oracle=False)
    reference = _run_path(build_engine, make_batches, oracle=True)
    assert columnar == reference


# ---------------------------------------------------------------------------
# TPC-C and YCSB (the acceptance workloads)
# ---------------------------------------------------------------------------
def _tpcc_builder(scale: float = 64.0, **config_overrides):
    def build_engine(engine_cls):
        bench = tpcc_bench(warehouses=8, neworder_pct=50, scale=scale, seed=7)
        config = dataclasses.replace(
            ltpg_config(bench.batch_size),
            batched_exec=False,
            **config_overrides,
        )
        build_engine.batch_size = bench.batch_size
        build_engine.generator = bench.generator
        return engine_cls(bench.database, bench.registry, config)

    def make_batches(rounds: int = 3):
        # Each path builds its own bench from the same seed, so the
        # generator streams are identical; replay through run_batch specs.
        gen = build_engine.generator
        for _ in range(rounds):
            yield [(t.procedure_name, t.params) for t in gen.make_batch(build_engine.batch_size)]

    return build_engine, make_batches


def test_tpcc_5050_identical_stats_and_state():
    build_engine, make_batches = _tpcc_builder()
    _assert_paths_agree(build_engine, make_batches)


def test_tpcc_without_optimizations_identical():
    """Naive warp planning + no split flags / delayed updates / buckets:
    exercises plan_naive_arrays and the undecorated dedup path."""

    def build_engine(engine_cls):
        bench = tpcc_bench(warehouses=8, neworder_pct=50, scale=64.0, seed=7)
        config = dataclasses.replace(
            ltpg_config(bench.batch_size).without_optimizations(),
            batched_exec=False,
        )
        build_engine.batch_size = bench.batch_size
        build_engine.generator = bench.generator
        return engine_cls(bench.database, bench.registry, config)

    def make_batches(rounds: int = 2):
        gen = build_engine.generator
        for _ in range(rounds):
            yield [(t.procedure_name, t.params) for t in gen.make_batch(build_engine.batch_size)]

    _assert_paths_agree(build_engine, make_batches)


def _ycsb_builder(workload: str, zipf_alpha: float, btree_scans: bool = False):
    def build_engine(engine_cls):
        db, registry, generator = build_ycsb(
            num_records=2_000,
            workload=workload,
            zipf_alpha=zipf_alpha,
            seed=11,
            btree_scans=btree_scans,
        )
        build_engine.generator = generator
        config = LTPGConfig(batch_size=256, batched_exec=False)
        return engine_cls(db, registry, config)

    def make_batches(rounds: int = 3):
        gen = build_engine.generator
        for _ in range(rounds):
            yield [(t.procedure_name, t.params) for t in gen.make_batch(256)]

    return build_engine, make_batches


def test_ycsb_a_zipf25_identical_stats_and_state():
    build_engine, make_batches = _ycsb_builder("a", zipf_alpha=2.5)
    _assert_paths_agree(build_engine, make_batches)


def test_ycsb_e_btree_ranges_identical():
    """Range reads + inserts (phantom checks) agree across paths."""
    build_engine, make_batches = _ycsb_builder("e", zipf_alpha=0.9, btree_scans=True)
    _assert_paths_agree(build_engine, make_batches)


# ---------------------------------------------------------------------------
# Delayed-column misuse must fail identically
# ---------------------------------------------------------------------------
def _delayed_misuse_engine(engine_cls) -> tuple[LTPGEngine, list[Transaction]]:
    db, registry = build_bank(accounts=8)

    @registry.register("misuse")
    def misuse(ctx, a):
        ctx.read("accounts", a, "balance")  # delayed column: ADD only

    config = LTPGConfig(
        batch_size=8,
        delayed_update=True,
        delayed_columns=frozenset({("accounts", "balance")}),
        batched_exec=False,
    )
    batch = [
        Transaction("deposit", (1, 5), tid=0),
        Transaction("misuse", (2,), tid=1),
    ]
    return engine_cls(db, registry, config), batch


def test_delayed_misuse_raises_identically():
    errors = []
    for engine_cls in (LTPGEngine, ReferenceEngine):
        engine, batch = _delayed_misuse_engine(engine_cls)
        with pytest.raises(TransactionError) as excinfo:
            engine.run_batch(batch)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]
    assert "delayed-update managed" in errors[0]


# ---------------------------------------------------------------------------
# Hypothesis: random bank batches
# ---------------------------------------------------------------------------
@st.composite
def bank_batches(draw):
    n_batches = draw(st.integers(1, 3))
    batches = []
    for _ in range(n_batches):
        n = draw(st.integers(1, 24))
        specs = []
        for _ in range(n):
            kind = draw(
                st.sampled_from(
                    ["transfer", "deposit", "audit", "open_account", "bad"]
                )
            )
            a = draw(st.integers(0, 11))
            b = draw(st.integers(0, 11))
            if kind == "transfer":
                specs.append((kind, (a, (a + 1 + b) % 12, 1 + a)))
            elif kind == "deposit":
                specs.append((kind, (a, 1 + b)))
            elif kind == "audit":
                specs.append((kind, (a, b)))
            elif kind == "open_account":
                specs.append((kind, (100 + draw(st.integers(0, 5)), 7)))
            else:
                specs.append((kind, (a,)))
        batches.append(specs)
    return batches


@given(bank_batches())
@settings(max_examples=40, deadline=None)
def test_property_columnar_matches_reference_on_random_batches(batches):
    def build_engine(engine_cls):
        db, registry = build_bank(accounts=12)
        config = LTPGConfig(batch_size=32, batched_exec=False)
        return engine_cls(db, registry, config)

    _assert_paths_agree(build_engine, lambda: iter(batches))


# ---------------------------------------------------------------------------
# Warp planners: array twins produce the identical ExecutionPlan
# ---------------------------------------------------------------------------
class _FakeTxn:
    __slots__ = ("ops",)

    def __init__(self, ops: OpColumns):
        self.ops = ops


@given(
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 4)),
            max_size=12,
        ),
        max_size=20,
    ),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_plan_arrays_matches_plan(per_txn_ops, grouped):
    txns = []
    kinds, tables, counts = [], [], []
    for ops in per_txn_ops:
        cols = OpColumns()
        for kind, table in ops:
            cols.append_op(kind, table, 0, 0, 0)
            kinds.append(kind)
            tables.append(table)
        counts.append(len(ops))
        txns.append(_FakeTxn(cols))
    reference = plan(txns, grouped)
    columnar = plan_arrays(
        np.asarray(kinds, dtype=np.int64),
        np.asarray(tables, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        grouped,
    )
    assert columnar == reference
