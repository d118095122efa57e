"""Differential tests for the execute phase, whatever runs the procedures.

One pipeline, three ways to fill it: the default engine (one vectorized
``BatchProcedure`` invocation per procedure group, scalar lanes for the
rest), the same engine with ``batched_exec=False`` (every procedure
treated as twin-less, so every lane is a scalar lane), and the test
oracle (``reference_engine.ReferenceEngine``: the seed's per-transaction
loop, per-op collector and per-transaction write-back).  They must be
observationally identical — statuses, abort reasons, per-transaction op
streams (``txn.ops.raw``), simulated phase times, and the final database
digest — because the wall-clock numbers in ``BENCH_wallclock.json``
claim the twins change host time and nothing else.

Each test runs identical batch specs through all three and compares the
full observable surface byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    BoundaryObserver,
    build_bank,
    mixed_bank_registry,
    mixed_bank_specs,
)
from reference_engine import ReferenceEngine
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import TransactionError
from repro.storage.table import Table
from repro.txn import ProcedureRegistry, Transaction
from repro.txn.batch_context import BatchedContext
from repro.txn.operations import column_name
from repro.workloads.smallbank import build_smallbank
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    SPLIT_COLUMNS,
    TpccMix,
    TpccScale,
    build_tpcc,
)
from repro.workloads.ycsb import build_ycsb
from repro.workloads.ycsb.generator import ycsb_delayed_columns

pytestmark = pytest.mark.batched

#: All five TPC-C procedures, so delivery/orderstatus/stocklevel twins
#: (secondary-index walks, range-ish reads, fallback lanes) all run.
FULL_MIX = TpccMix(
    neworder=0.4, payment=0.3, orderstatus=0.1, stocklevel=0.1, delivery=0.1
)


def _observe(engine, batches):
    """Run ``batches`` (lists of (name, params) specs) and capture every
    path-sensitive observable."""
    out = []
    for specs in batches:
        batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
        result = engine.run_batch(batch)
        out.append(
            {
                "committed": result.stats.committed,
                "aborted": result.stats.aborted,
                "logic_aborted": result.stats.logic_aborted,
                "statuses": [t.status for t in batch],
                "reasons": [t.abort_reason for t in batch],
                "ops": [t.ops.raw for t in batch],
                "phase_ns": dict(result.stats.phase_ns),
                "rwset_ns": result.stats.rwset_ns,
                "abort_reasons": dict(result.stats.abort_reasons),
                "by_proc": dict(result.stats.committed_by_proc),
            }
        )
    out.append(engine.database.state_digest())
    return out


def _three_way(build, batches):
    """Assert oracle == twin-less == default on fresh engines."""
    reference = _observe(build({}, ReferenceEngine), batches)
    assert _observe(build(dict(batched_exec=False)), batches) == reference
    assert _observe(build({}), batches) == reference


# ---------------------------------------------------------------------------
# TPC-C: full procedure mix with the paper's optimizations on
# ---------------------------------------------------------------------------
def test_tpcc_full_mix_three_way_identical():
    def make():
        _, _, gen = build_tpcc(warehouses=2, num_items=2000, mix=FULL_MIX, seed=7)
        return [
            [(t.procedure_name, t.params) for t in gen.make_batch(256)]
            for _ in range(3)
        ]

    def build(mode_kwargs, engine_cls=LTPGEngine):
        db, registry, _ = build_tpcc(
            warehouses=2, num_items=2000, mix=FULL_MIX, seed=7
        )
        config = LTPGConfig(
            batch_size=256,
            delayed_update=True,
            delayed_columns=DELAYED_COLUMNS,
            split_flags=True,
            split_columns=SPLIT_COLUMNS,
            **mode_kwargs,
        )
        return engine_cls(db, registry, config)

    _three_way(build, make())


# ---------------------------------------------------------------------------
# TPC-C NewOrder: every way a lane's item loop stops, one cell each
# ---------------------------------------------------------------------------
_SCALE = TpccScale(warehouses=2, num_items=2000)
_NO_ITEM = 10**9  # no such item (nor stock row)


def _neworder(o_id, items, w=0, c=5, rollback=0):
    """A NewOrder spec: ``items`` ordered 3 at a time by customer ``c``
    of district (0, 1); ``w`` names the stock rows' warehouse."""
    flat = [x for item in items for x in (item, 3)]
    c_key = _SCALE.customer_key(0, 1, c)
    return ("neworder", (w, 1, c_key, o_id, rollback, *flat))


def _payment(h_id):
    return ("payment", (1, 2, _SCALE.customer_key(1, 2, h_id), 100, h_id))


#: cell -> (batches, logic aborts among them).  Each batch's other
#: lanes run the whole loop, so a short lane shares its group with
#: complete ones.
NEWORDER_CELLS = {
    "item-missing-first": ([[_neworder(1, [_NO_ITEM, 11, 12, 13]), _neworder(2, [21, 22])]], 1),
    "item-missing-middle": ([[_neworder(1, [11, 12, _NO_ITEM, 13, 14]), _neworder(2, [21, 22])]], 1),
    "item-missing-last": ([[_neworder(1, [11, 12, 13, 14, _NO_ITEM]), _neworder(2, [21, 22])]], 1),
    # warehouse 2 does not exist: the item reads, its stock row is missing
    "stock-missing": ([[_neworder(1, [11, 12, 13], w=2), _neworder(2, [21, 22])]], 1),
    # the second batch reuses o_id 1, whose order lines the first installed
    "order-line-taken": ([
        [_neworder(1, [11, 12, 13]), _neworder(2, [21, 22])],
        [_neworder(1, [31, 32]), _neworder(3, [41, 42, 43])],
    ], 1),
    "rollback": ([[_neworder(1, [11, 12, 13], rollback=1), _neworder(2, [21, 22])]], 1),
    "repeated-item": ([[_neworder(1, [11, 12, 11]), _neworder(2, [21, 22])]], 0),
    "customer-missing": ([[_neworder(1, [11, 12], c=10**6), _neworder(2, [21, 22])]], 1),
    "1-and-15-items": (
        [[_neworder(1, [11]), _neworder(2, range(100, 115)), _neworder(3, [31, 32])]], 0,
    ),
    "one-lane-group": ([[_payment(1), _neworder(1, [11, 12, 13]), _payment(2)]], 0),
    "all-at-once": ([
        [_neworder(1, [11, 12]), _neworder(2, [21, 22])],
        [
            _neworder(3, [_NO_ITEM, 11]), _neworder(4, [12, 13, _NO_ITEM, 14]),
            _neworder(5, [15, 16], w=2), _neworder(1, [17]),
            _neworder(6, [18, 19], rollback=1), _neworder(7, [20, 21, 20]),
            _neworder(8, [22], c=10**6), _neworder(9, range(200, 215)),
            _neworder(10, [23]), _payment(3),
        ],
    ], 6),
}


def _build_small_tpcc(mode_kwargs, engine_cls=LTPGEngine):
    db, registry, _ = build_tpcc(
        warehouses=_SCALE.warehouses, num_items=_SCALE.num_items, seed=7
    )
    config = LTPGConfig(
        batch_size=64,
        delayed_columns=DELAYED_COLUMNS,
        split_columns=SPLIT_COLUMNS,
        **mode_kwargs,
    )
    return engine_cls(db, registry, config)


@pytest.mark.parametrize("cell", NEWORDER_CELLS)
def test_neworder_short_lanes_three_way_identical(cell):
    batches, logic_aborts = NEWORDER_CELLS[cell]

    def observe(engine):
        out = _observe(engine, batches)
        # the slots the order lines landed in, which the digest (rows
        # ordered by key) does not see
        order_line = engine.database.table("order_line")
        out.append([order_line.key_of(r) for r in range(order_line.num_rows)])
        return out

    reference = observe(_build_small_tpcc({}, ReferenceEngine))
    assert observe(_build_small_tpcc(dict(batched_exec=False))) == reference
    assert observe(_build_small_tpcc({})) == reference
    assert sum(b["logic_aborted"] for b in reference[: len(batches)]) == logic_aborts


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
        engine = _build_small_tpcc({})
        specs = [
            _neworder(o_id, range(100 * o_id, 100 * o_id + 1 + o_id % max_items))
            for o_id in range(1, 9)
        ]
        seen.clear()
        probes.clear()
        _observe(engine, [specs])
        counts[max_items] = (list(seen), sorted(probes))
    assert counts[5] == counts[15]


# ---------------------------------------------------------------------------
# YCSB: RMW hazards, delayed deltas, B-tree range scans
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "ycsb_kwargs, delayed",
    [
        (dict(num_records=2000, workload="a", zipf_alpha=2.5, seed=11), True),
        (
            dict(
                num_records=2000,
                workload="a",
                zipf_alpha=1.2,
                seed=5,
                commutative_updates=False,
            ),
            False,
        ),
        (
            dict(
                num_records=2000,
                workload="e",
                zipf_alpha=0.9,
                seed=11,
                btree_scans=True,
            ),
            False,
        ),
    ],
    ids=["a-zipf25-delayed", "a-ablation-rmw", "e-btree-ranges"],
)
def test_ycsb_three_way_identical(ycsb_kwargs, delayed):
    _, _, gen = build_ycsb(**ycsb_kwargs)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(256)]
        for _ in range(3)
    ]

    def build(mode_kwargs, engine_cls=LTPGEngine):
        db, registry, _ = build_ycsb(**ycsb_kwargs)
        config = LTPGConfig(
            batch_size=256,
            delayed_update=delayed,
            delayed_columns=ycsb_delayed_columns() if delayed else frozenset(),
            **mode_kwargs,
        )
        return engine_cls(db, registry, config)

    _three_way(build, batches)


# ---------------------------------------------------------------------------
# SmallBank: six procedures, all with never-falling-back twins
# ---------------------------------------------------------------------------
def test_smallbank_three_way_identical():
    _, _, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(256)]
        for _ in range(3)
    ]

    def build(mode_kwargs, engine_cls=LTPGEngine):
        db, registry, _ = build_smallbank(
            num_accounts=500, zipf_alpha=1.2, seed=3
        )
        return engine_cls(db, registry, LTPGConfig(batch_size=256, **mode_kwargs))

    _three_way(build, batches)


# ---------------------------------------------------------------------------
# Mixed registry: some procedures batched, some scalar-only, plus
# in-twin fall_back lanes — the three execution routes inside one batch
# ---------------------------------------------------------------------------
def test_mixed_batched_and_scalar_procedures_identical():
    specs = mixed_bank_specs()

    def build(mode_kwargs, engine_cls=LTPGEngine):
        db, registry = mixed_bank_registry()
        return engine_cls(db, registry, LTPGConfig(batch_size=256, **mode_kwargs))

    _three_way(build, [specs, specs[::-1]])
    # groups of one or two lanes, down to a one-transaction batch
    _three_way(
        build,
        [
            [("deposit", (1, 5)), ("deposit", (2, 7)), ("transfer", (3, 4, 1))],
            [("deposit", (5, 1))],
        ],
    )


# ---------------------------------------------------------------------------
# One sorted pass resolves writes, adds and delayed adds together: the
# interleaving that pass must get right, against the LocalSets oracle
# ---------------------------------------------------------------------------
def _churn_bank():
    """:func:`build_bank` plus ``churn(a, d, amount, die)``, scalar and
    twin: on cell ``a.balance`` an add the write kills, the write, two
    adds that survive it; interleaved with them two delayed adds on
    ``d.flags``; then, if ``die``, a rollback after all of it."""
    db, registry = build_bank(accounts=32)

    @registry.register("churn")
    def churn(ctx, a, d, amount, die):
        ctx.add("accounts", a, "balance", amount)
        ctx.add("accounts", d, "flags", 1)
        ctx.write("accounts", a, "balance", 7 * amount)
        ctx.add("accounts", a, "balance", 2)
        ctx.add("accounts", d, "flags", amount)
        ctx.add("accounts", a, "balance", 3)
        if die:
            ctx.abort("rolls back after emitting everything")

    @registry.register_batched("churn")
    def churn_b(bctx, p):
        lanes = bctx.active_lanes()
        a, d, amount, die = (p.column(i)[lanes] for i in range(4))
        rows_a, _ = bctx.rows_for_keys("accounts", lanes, a)
        rows_d, _ = bctx.rows_for_keys("accounts", lanes, d)
        bctx.add("accounts", lanes, rows_a, "balance", amount)
        bctx.add("accounts", lanes, rows_d, "flags", 1)
        bctx.write("accounts", lanes, rows_a, "balance", 7 * amount)
        bctx.add("accounts", lanes, rows_a, "balance", 2)
        bctx.add("accounts", lanes, rows_d, "flags", amount)
        bctx.add("accounts", lanes, rows_a, "balance", 3)
        bctx.logic_abort(lanes[die != 0])

    return db, registry


def _cells_by_lane(cells) -> dict[tuple, int]:
    return {
        (txn, table, row, column_name(col)): val
        for txn, table, row, col, val in zip(*(c.tolist() for c in cells.columns()))
    }


def test_add_write_add_with_delayed_adds_resolves_like_local_sets():
    # lanes 0-5 churn their own cell and share two delayed cells; lane 3
    # rolls back after emitting the lot; lanes 6/7 collide on one cell
    # (the later one aborts, so its resolved cells must not install);
    # the deposits are plain adds in a second procedure group
    specs = [("churn", (i, 20 + i % 2, 10 + i, int(i == 3))) for i in range(6)]
    specs += [("churn", (9, 20, 5, 0)), ("churn", (9, 21, 6, 0))]
    specs += [("deposit", (i, 4)) for i in range(10, 14)]

    def build(mode_kwargs, engine_cls=LTPGEngine):
        db, registry = _churn_bank()
        config = LTPGConfig(
            batch_size=64, delayed_columns={("accounts", "flags")}, **mode_kwargs
        )
        return engine_cls(db, registry, config)

    _three_way(build, [specs, specs])

    oracle = build({}, ReferenceEngine)
    _observe(oracle, [specs])
    writes, adds, delayed = {}, {}, {}
    for lane, (local, late) in enumerate(zip(oracle._locals, oracle._delayed_adds)):
        writes.update({(lane, *loc): v for loc, v in local.writes.items()})
        adds.update({(lane, *loc): v for loc, v in local.adds.items()})
        delayed.update({(lane, t, r, c): v for t, r, c, v in late})
    assert (3, 0, 3, "balance") not in writes  # the rolled-back lane
    assert writes[(0, 0, 0, "balance")] == 70 and adds[(0, 0, 0, "balance")] == 5
    assert delayed[(0, 0, 20, "flags")] == 11

    for mode_kwargs in ({}, dict(batched_exec=False)):
        engine = build(mode_kwargs)
        seen = []
        engine.observers += (BoundaryObserver(batch_done=seen.append),)
        _observe(engine, [specs])
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
    by chunk): a count of both, not a timer."""

    def build(mode_kwargs, engine_cls=LTPGEngine):
        db, registry, _ = build_tpcc(warehouses=2, num_items=2000, seed=7)
        twin_less = ProcedureRegistry()
        for name in registry.names():
            twin_less.register(name, registry.get(name))
        config = LTPGConfig(
            batch_size=2048,
            delayed_columns=DELAYED_COLUMNS,
            split_columns=SPLIT_COLUMNS,
            **mode_kwargs,
        )
        return engine_cls(db, twin_less, config)

    concatenates = {}
    for lanes in (256, 2048):
        _, _, gen = build_tpcc(
            warehouses=2, num_items=2000, mix=TpccMix.neworder_percentage(50), seed=7
        )
        specs = [(t.procedure_name, t.params) for t in gen.make_batch(lanes)]
        engine = build({})
        seen = []
        engine.observers += (BoundaryObserver(batch_done=seen.append),)
        calls = []
        concatenate = np.concatenate
        with monkeypatch.context() as patch:
            patch.setattr(
                np, "concatenate", lambda *a, **k: calls.append(1) or concatenate(*a, **k)
            )
            observed = _observe(engine, [specs])
        concatenates[lanes] = len(calls)
        assert observed == _observe(build({}, ReferenceEngine), [specs])
        (data,) = seen
        locals_ = data.batch_locals
        # one payload chunk per distinct insert column tuple, however
        # many rows were inserted
        column_tuples = [names for names, _ in locals_.payloads]
        assert len(column_tuples) == len(set(column_tuples)) <= 4
        assert locals_.inserts.size > lanes
    assert concatenates[2048] == concatenates[256]


# ---------------------------------------------------------------------------
# Unknown procedure names: clear error, no cache poisoning
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

    # the failed lookup must not have poisoned the procedure cache:
    # a valid batch still executes on the same engine...
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
