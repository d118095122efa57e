"""The columnar collector vs the test oracle's per-op loop.

The engine's execute phase collects a batch's reservations and costs
with NumPy over one flat op matrix; ``reference_engine.ReferenceEngine``
walks the same ops one ``OpRecord`` at a time, the way the seed did.
They are two implementations of the *same* algorithm, so every
observable must agree byte for byte: the differential cells here are
conformance-lattice cells (``helpers.check_cell``) on the twin-less
configuration, where every lane runs its scalar procedure as every lane
of the oracle does.  These are the contract that lets the wall-clock
harness (``BENCH_wallclock.json``) claim its numbers are host time and
nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Source,
    build_bank,
    check_cell,
    draw_bank_specs,
    first_difference,
    observe_cell,
)
from reference_engine import ReferenceEngine
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import TransactionError
from repro.txn import Transaction
from repro.txn.decompose import plan, plan_arrays
from repro.txn.operations import OpColumns


def test_tpcc_5050_identical_stats_and_state():
    check_cell("tpcc-bench@256x3", "twin-less")


def test_tpcc_without_optimizations_identical():
    """Naive warp planning + no split flags / delayed updates / buckets:
    exercises plan_naive_arrays and the undecorated dedup path."""
    check_cell("tpcc-bench@256x2", "no-opts")


def test_ycsb_a_zipf25_identical_stats_and_state():
    check_cell("ycsb-a@256x3", "twin-less")


def test_ycsb_e_btree_ranges_identical():
    """Range reads + inserts (phantom checks) agree across paths."""
    check_cell("ycsb-e@256x3", "twin-less")


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


@st.composite
def bank_batches(draw):
    return [draw_bank_specs(draw, 24) for _ in range(draw(st.integers(1, 3)))]


@given(bank_batches())
@settings(max_examples=40, deadline=None)
def test_property_columnar_matches_reference_on_random_batches(batches):
    """Random bank batches as a lattice source: twin-less and default on
    the direct route, default driven (aborts re-queued), each against
    the oracle."""
    source = Source(lambda: (*build_bank(accounts=12), {}, batches), lanes=32)
    for route, configs in (("direct", ("twin-less", "default")), ("driven", ("default",))):
        expected = observe_cell(source, "default", route, oracle=True)[0]
        for config in configs:
            cell = observe_cell(source, config, route)[0]
            assert cell == expected, (config, route, first_difference(cell, expected))


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
            cols.buffer.extend((kind, table, 0, 0, 0, 0))
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
