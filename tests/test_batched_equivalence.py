"""Differential tests for the execute phase, whatever runs the procedures.

One pipeline, three ways to fill it: the default engine (one vectorized
``BatchProcedure`` invocation per procedure group, scalar lanes for the
rest), the same engine with ``batched_exec=False`` (every procedure
treated as twin-less, so every lane is a scalar lane), and the test
oracle (``reference_engine.ReferenceEngine``: the seed's per-transaction
loop, per-op collector and per-transaction write-back).  They must be
observationally identical, because the wall-clock numbers in
``BENCH_wallclock.json`` claim the twins change host time and nothing
else.  The differential cells here are conformance-lattice cells
(``helpers.check_cell``: default and twin-less, each against the
oracle); the rest count what the twins do.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    CHURN_SPECS,
    NEWORDER_CELLS,
    BoundaryObserver,
    build_bank,
    check_cell,
    churn_bank,
    neworder_spec,
    run_specs,
    small_tpcc,
    source_of,
)
from reference_engine import ReferenceEngine
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import TransactionError
from repro.storage.table import Table
from repro.txn import Transaction
from repro.txn.batch_context import BatchedContext
from repro.txn.operations import column_name

pytestmark = pytest.mark.batched


def _check_twin_less_and_default(source):
    """Twin-less and default, each against the oracle."""
    for config in ("twin-less", "default"):
        check_cell(source, config)


def test_tpcc_full_mix_three_way_identical():
    _check_twin_less_and_default("tpcc-full-mix@256x3")


@pytest.mark.parametrize("cell", NEWORDER_CELLS)
def test_neworder_short_lanes_three_way_identical(cell):
    _check_twin_less_and_default(f"neworder:{cell}")


def _small_tpcc_engine():
    db, registry, marks, _ = small_tpcc()
    return LTPGEngine(db, registry, LTPGConfig(batch_size=64, **marks))


def test_neworder_twin_cost_does_not_grow_with_max_items(monkeypatch):
    """The twin runs every item slot in one pass: a group whose lanes
    order at most 5 items and one whose lanes order 15 record the same
    number of op and insert chunks and make the same number of key
    resolutions."""
    seen = []
    finalize = BatchedContext.finalize
    monkeypatch.setattr(
        BatchedContext, "finalize",
        lambda self: seen.append((len(self._chunks), len(self._ins_chunks)))
        or finalize(self),
    )
    probes = []
    rows_of_keys = Table.rows_of_keys
    monkeypatch.setattr(
        Table, "rows_of_keys",
        lambda self, *a, **k: probes.append(self.name) or rows_of_keys(self, *a, **k),
    )
    counts = {}
    for max_items in (5, 15):
        engine = _small_tpcc_engine()
        specs = [
            neworder_spec(o_id, range(100 * o_id, 100 * o_id + 1 + o_id % max_items))
            for o_id in range(1, 9)
        ]
        seen.clear()
        probes.clear()
        run_specs(engine, [specs])
        counts[max_items] = (list(seen), sorted(probes))
    assert counts[5] == counts[15]


@pytest.mark.parametrize(
    "source",
    ["ycsb-a-delayed", "ycsb-rmw", "ycsb-e"],
    ids=["a-zipf25-delayed", "a-ablation-rmw", "e-btree-ranges"],
)
def test_ycsb_three_way_identical(source):
    _check_twin_less_and_default(source + "@256x3")


def test_smallbank_three_way_identical():
    _check_twin_less_and_default("smallbank-500@256x3")


def test_mixed_batched_and_scalar_procedures_identical():
    """Some procedures batched, some scalar-only, plus in-twin fall_back
    lanes — the three execution routes inside one batch — then groups
    of one or two lanes, down to a one-transaction batch."""
    _check_twin_less_and_default("mixed-bank")
    _check_twin_less_and_default("small-groups")


# ---------------------------------------------------------------------------
# One sorted pass resolves writes, adds and delayed adds together: the
# interleaving that pass must get right, against the LocalSets oracle
# ---------------------------------------------------------------------------
def _cells_by_lane(cells) -> dict[tuple, int]:
    return {
        (txn, table, row, column_name(col)): val
        for txn, table, row, col, val in zip(*(c.tolist() for c in cells.columns()))
    }


def test_add_write_add_with_delayed_adds_resolves_like_local_sets():
    _check_twin_less_and_default("churn")

    def build(engine_cls=LTPGEngine, **mode_kwargs):
        config = LTPGConfig(
            batch_size=64, delayed_columns={("accounts", "flags")}, **mode_kwargs
        )
        return engine_cls(*churn_bank(), config)

    oracle = build(ReferenceEngine)
    run_specs(oracle, [CHURN_SPECS])
    writes, adds, delayed = {}, {}, {}
    for lane, (local, late) in enumerate(zip(oracle._locals, oracle._delayed_adds)):
        writes.update({(lane, *loc): v for loc, v in local.writes.items()})
        adds.update({(lane, *loc): v for loc, v in local.adds.items()})
        delayed.update({(lane, t, r, c): v for t, r, c, v in late})
    assert (3, 0, 3, "balance") not in writes  # the rolled-back lane
    assert writes[(0, 0, 0, "balance")] == 70 and adds[(0, 0, 0, "balance")] == 5
    assert delayed[(0, 0, 20, "flags")] == 11

    for mode_kwargs in ({}, dict(batched_exec=False)):
        engine = build(**mode_kwargs)
        seen = []
        engine.observers += (BoundaryObserver(batch_done=seen.append),)
        run_specs(engine, [CHURN_SPECS])
        bl = seen[0].batch_locals
        assert _cells_by_lane(bl.writes) == writes
        assert _cells_by_lane(bl.adds) == adds
        assert _cells_by_lane(bl.delayed) == delayed
        assert bl.writes.size == len(writes)  # one row per cell, no repeats
        assert bl.adds.size == len(adds) and bl.delayed.size == len(delayed)


# ---------------------------------------------------------------------------
# A registry without twins under the default config: the scalar lanes'
# fold into the columnar locals is linear in the lanes
# ---------------------------------------------------------------------------
def test_twin_less_registry_folds_once_per_batch(monkeypatch):
    """Third-party procedures have no twins, so under ``LTPGConfig()``
    every lane is a scalar lane.  Folding their local sets used to
    re-concatenate every column for every lane and give every inserted
    row a payload chunk of its own (which the write-back walked chunk
    by chunk): a count of both, not a timer.  What the batch commits is
    the oracle's."""
    concatenates = {}
    for lanes in (256, 2048):
        source = f"tpcc-no-twins@{lanes}x1"
        db, registry, marks, (specs,), _ = source_of(source).setup()
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=2048, **marks))
        seen = []
        engine.observers += (BoundaryObserver(batch_done=seen.append),)
        calls = []
        concatenate = np.concatenate
        with monkeypatch.context() as patch:
            patch.setattr(
                np, "concatenate", lambda *a, **k: calls.append(1) or concatenate(*a, **k)
            )
            run_specs(engine, [specs])
        concatenates[lanes] = len(calls)
        (data,) = seen
        locals_ = data.batch_locals
        # one payload chunk per distinct insert column tuple, however
        # many rows were inserted
        column_tuples = [names for names, _ in locals_.payloads]
        assert len(column_tuples) == len(set(column_tuples)) <= 4
        assert locals_.inserts.size > lanes
        check_cell(source)
    assert concatenates[2048] == concatenates[256]


# ---------------------------------------------------------------------------
# Unknown procedure names: clear error, engine still usable
# ---------------------------------------------------------------------------
def test_unknown_procedure_clear_error_and_clean_cache():
    db, registry = build_bank(accounts=8)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=8, batched_exec=False))

    with pytest.raises(TransactionError) as excinfo:
        engine.run_batch([Transaction("no_such_proc", (1,), tid=0)])
    message = str(excinfo.value)
    assert "no_such_proc" in message
    assert "registered procedures" in message
    assert "deposit" in message  # tells the user what *is* available

    # the failed lookup leaves the engine usable: a valid batch still
    # executes on it...
    result = engine.run_batch([Transaction("deposit", (1, 5), tid=0)])
    assert result.stats.committed == 1

    # ...and the unknown name keeps raising the same clear error
    with pytest.raises(TransactionError, match="no_such_proc"):
        engine.run_batch([Transaction("no_such_proc", (1,), tid=1)])


def test_unknown_procedure_same_error_in_batched_mode():
    db, registry = build_bank(accounts=8)
    engine = LTPGEngine(
        db, registry,
        LTPGConfig(batch_size=8, batched_exec=True),
    )
    with pytest.raises(TransactionError, match="no_such_proc"):
        engine.run_batch([Transaction("no_such_proc", (1,), tid=0)])
    result = engine.run_batch([Transaction("deposit", (1, 5), tid=0)])
    assert result.stats.committed == 1
