"""Differential testing: LTPG (GPU optimizations off) against Aria.

Both are deterministic OCC with reordering at row granularity, so on
any workload that avoids delayed columns they must agree *exactly* —
same per-transaction statuses, same final state.  Hypothesis drives
random batches through both engines.
"""

from __future__ import annotations

import copy
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_bank, draw_bank_specs
from repro.baselines import AriaEngine
from repro.core import LTPGConfig, LTPGEngine
from repro.txn import Transaction


@st.composite
def mixed_batches(draw):
    return draw_bank_specs(draw, 20)


def run_ltpg(specs):
    db, registry = build_bank(accounts=12)
    config = dataclasses.replace(
        LTPGConfig(batch_size=32).without_optimizations(),
        logical_reordering=True,
    )
    engine = LTPGEngine(db, registry, config)
    batch = [Transaction(k, p, tid=i) for i, (k, p) in enumerate(specs)]
    engine.run_batch(batch)
    return db, batch


def run_aria(specs):
    db, registry = build_bank(accounts=12)
    engine = AriaEngine(db, registry)
    batch = [Transaction(k, p, tid=i) for i, (k, p) in enumerate(specs)]
    engine.run_batch(batch)
    return db, batch


@given(mixed_batches())
@settings(max_examples=60, deadline=None)
def test_ltpg_matches_aria_exactly(specs):
    db_l, batch_l = run_ltpg(specs)
    db_a, batch_a = run_aria(specs)
    assert [t.status for t in batch_l] == [t.status for t in batch_a]
    assert db_l.state_digest() == db_a.state_digest()


@given(mixed_batches())
@settings(max_examples=30, deadline=None)
def test_ltpg_without_reordering_commits_subset(specs):
    """Disabling reordering can only shrink the commit set."""
    from repro.txn import TxnStatus

    db, registry = build_bank(accounts=12)
    strict_cfg = LTPGConfig(batch_size=32).without_optimizations()
    engine = LTPGEngine(db, registry, strict_cfg)
    batch_strict = [Transaction(k, p, tid=i) for i, (k, p) in enumerate(specs)]
    engine.run_batch(batch_strict)

    _, batch_reorder = run_ltpg(specs)
    committed_strict = {
        t.tid for t in batch_strict if t.status is TxnStatus.COMMITTED
    }
    committed_reorder = {
        t.tid for t in batch_reorder if t.status is TxnStatus.COMMITTED
    }
    assert committed_strict <= committed_reorder
