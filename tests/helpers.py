"""Shared test helpers (importable as `helpers`; kept out of
conftest.py so the module name never collides with benchmarks/)."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from reference_engine import ReferenceEngine
from repro.analysis.workload import build_workload
from repro.bench import paper, tpcc_bench
from repro.core import LTPGConfig, LTPGEngine
from repro.core.batch import BatchObserver
from repro.serve.clock import run_simulation
from repro.serve.orchestrator import Orchestrator
from repro.serve.policies import make_policy
from repro.storage import Database, make_schema
from repro.txn import ProcedureRegistry, Transaction, assign_tids
from repro.txn.batch import BatchScheduler, drive
from repro.validate import replay_in_witness_order
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    HOT_TABLES,
    SPLIT_COLUMNS,
    TpccMix,
    TpccScale,
    build_tpcc,
)
from repro.workloads.smallbank import build_smallbank
from repro.workloads.ycsb import build_ycsb, ycsb_delayed_columns


#: The smoke scale of the bench tests: paper sizes divided by 64.
TINY = 64.0

#: One smoke run per case: (experiment, scale, rounds, axis overrides).
#: ``tests/test_bench.py`` holds each case to its spec's shape predicate
#: and renders it; ``tests/test_driver_goldens.py`` pins its cells.
SMOKE: dict[str, tuple[str, float, int, dict]] = {
    "table2": ("table2", TINY, 2, dict(pct=(50,), warehouses=(8,))),
    # GaccO's payment-only lead needs a reasonable payments-per-warehouse
    # ratio: a moderate scale rather than the smoke scale
    "table2@16": (
        "table2",
        16.0,
        2,
        dict(pct=(50, 0), warehouses=(8,), system=("ltpg", "gacco", "calvin")),
    ),
    "table3": ("table3", TINY, 2, dict(pct=(50,), warehouses=(8,), batch=(2**8, 2**14))),
    "table4": ("table4", TINY, 2, dict(warehouses=(8,), batch=(8_192,))),
    "table5": ("table5", TINY, 2, dict(batch=(1_024, 65_536))),
    "table6": ("table6", TINY, 2, dict(warehouses=(8,), batch=(16_384,))),
    "table7": ("table7", TINY, 2, {}),
    "table8": ("table8", TINY, 2, dict(warehouses=(8, 64))),
    "table9": ("table9", 64.0, 1, {}),
    # spread the batch sizes: adjacent small sizes sit in the
    # fixed-cost-dominated regime where latencies nearly tie
    "fig6a": ("fig6a", TINY, 2, dict(batch=(2**8, 2**16))),
    "fig6b": ("fig6b", TINY, 2, {}),
    "fig7": (
        "fig7",
        TINY,
        2,
        dict(data_size=(10_000,), workload=("a", "b", "c", "e"), batch=(2**10,)),
    ),
    "ablations": ("ablations", 64.0, 2, {}),
    "sweep": ("sweep", 32.0, 2, dict(hot=(0.0, 1.0))),
    "fullmix": ("fullmix", 32.0, 3, {}),
    "calibration": (
        "calibration",
        64.0,
        2,
        dict(source=("table2",), anchor=((50, 8, "gacco"),)),
    ),
    "calibration@table7": ("calibration", TINY, 2, dict(source=("table7",))),
}


@functools.cache
def smoke(case: str) -> dict[tuple, dict]:
    """A smoke case's records as ``{key: values}``, run once per test run
    (read-only: the shape tests and the goldens share it)."""
    name, scale, rounds, axes = SMOKE[case]
    return dict(paper.run(name, scale, rounds, **axes))


def violates(case: str, key: tuple, column: str, value: float) -> None:
    """The spec's shape predicate rejects the smoke records with one
    cell's column set to ``value``."""
    name, scale, _, _ = SMOKE[case]
    records = {k: dict(v) for k, v in smoke(case).items()}
    records[key][column] = value
    with pytest.raises(AssertionError):
        paper.SPECS[name].shape(records, scale)



def build_bank(accounts: int = 64, balance: int = 1000) -> tuple[Database, ProcedureRegistry]:
    """A tiny two-table bank: deterministic, easy to reason about.

    Procedures:

    * ``transfer(a, b, amount)`` — RMW both balances (classic conflict).
    * ``deposit(a, amount)``     — commutative ADD on one balance.
    * ``audit(a, b)``            — read two balances.
    * ``open_account(key, amount)`` — insert.
    * ``bad(a)``                 — always rolls itself back after a write.
    """
    db = Database("bank")
    table = db.create_table(make_schema("accounts", "acct_id", "balance", "flags"))
    table.bulk_load(
        np.arange(accounts, dtype=np.int64),
        {"balance": np.full(accounts, balance, dtype=np.int64)},
    )
    registry = ProcedureRegistry()

    @registry.register("transfer")
    def transfer(ctx, a, b, amount):
        bal_a = ctx.read("accounts", a, "balance")
        bal_b = ctx.read("accounts", b, "balance")
        ctx.write("accounts", a, "balance", bal_a - amount)
        ctx.write("accounts", b, "balance", bal_b + amount)

    @registry.register("deposit")
    def deposit(ctx, a, amount):
        ctx.add("accounts", a, "balance", amount)

    @registry.register("audit")
    def audit(ctx, a, b):
        ctx.read("accounts", a, "balance")
        ctx.read("accounts", b, "balance")

    @registry.register("open_account")
    def open_account(ctx, key, amount):
        ctx.insert("accounts", key, {"balance": amount})

    @registry.register("bad")
    def bad(ctx, a):
        ctx.write("accounts", a, "flags", 1)
        ctx.abort("always rolls back")

    return db, registry


def draw_bank_specs(draw, max_lanes: int) -> list[tuple[str, tuple]]:
    """Hypothesis: one batch of 1 to ``max_lanes`` random
    :func:`build_bank` specs over 12 accounts, every procedure in it."""
    specs = []
    for _ in range(draw(st.integers(1, max_lanes))):
        kind = draw(st.sampled_from(["transfer", "deposit", "audit", "open_account", "bad"]))
        a, b = draw(st.integers(0, 11)), draw(st.integers(0, 11))
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
    return specs


def bank_engine(
    accounts: int = 64, config: LTPGConfig | None = None
) -> tuple[LTPGEngine, Database, ProcedureRegistry]:
    db, registry = build_bank(accounts)
    engine = LTPGEngine(db, registry, config or LTPGConfig(batch_size=64))
    return engine, db, registry


class StubEngine:
    """A scriptable engine double for the serve-layer tests.

    Implements exactly the surface the :class:`repro.serve.orchestrator
    .Orchestrator` and :func:`repro.txn.batch.step` touch —
    ``config.batch_size``, ``retry_delay``, ``run_batch``, optional
    ``tracer`` — with a pluggable per-transaction ``verdict`` and a
    fixed simulated ``latency_ns`` per non-empty batch.
    ``latency_ns=0`` makes policy deadlines *exact* (no queueing delay
    ever accrues), which the Hypothesis deadline-bound property relies
    on.

    ``verdict(txn) -> "commit" | "abort" | "logic"`` — "abort" means a
    concurrency-control abort (the orchestrator re-queues it).
    """

    def __init__(
        self,
        batch_size: int = 8,
        latency_ns: float = 0.0,
        verdict=None,
    ):
        from types import SimpleNamespace

        self.config = SimpleNamespace(batch_size=batch_size)
        self.retry_delay = 1
        self.latency_ns = latency_ns
        self.verdict = verdict or (lambda txn: "commit")
        self.tracer = None
        self.metrics = None
        #: every batch run, as (procedure_name, tid) tuples
        self.batches: list[list[tuple[str, int]]] = []

    def reset_run_state(self) -> None:
        self.batches = []

    def run_batch(self, batch):
        from repro.core.engine import BatchResult
        from repro.core.stats import BatchStats
        from repro.txn.transaction import TxnStatus

        self.batches.append([(t.procedure_name, t.tid) for t in batch])
        committed, aborted, logic = [], [], []
        for t in batch:
            t.attempts += 1
            kind = self.verdict(t)
            if kind == "commit":
                t.status = TxnStatus.COMMITTED
                committed.append(t)
            elif kind == "abort":
                t.status = TxnStatus.ABORTED
                t.abort_reason = "stub-cc"
                aborted.append(t)
            elif kind == "logic":
                t.status = TxnStatus.LOGIC_ABORTED
                t.abort_reason = "stub-logic"
                logic.append(t)
            else:  # pragma: no cover - test-authoring error
                raise ValueError(f"unknown stub verdict {kind!r}")
        stats = BatchStats(
            batch_index=len(self.batches) - 1,
            num_txns=len(batch),
            committed=len(committed),
            aborted=len(aborted),
            logic_aborted=len(logic),
            latency_ns=self.latency_ns if batch else 0.0,
        )
        return BatchResult(stats, committed, aborted, logic)


class BoundaryObserver:
    """A :class:`repro.core.batch.BatchObserver` for tests — attach with
    ``engine.observers += (BoundaryObserver(...),)``.

    ``at=(call, stage)`` names one boundary, e.g. ``("stage_leaving",
    "execute")`` or ``("batch_done", None)``; the first time the runner
    reaches it, ``RuntimeError("injected")`` is raised (the engine
    crashed there, once).  ``batch_done`` is called with every batch
    record once it is over.
    """

    def __init__(self, at=None, batch_done=None):
        self.at, self.on_done = at, batch_done

    def _reach(self, call, stage=None):
        if self.at == (call, stage):
            self.at = None
            raise RuntimeError("injected")

    def stage_entered(self, engine, batch, stage):
        self._reach("stage_entered", stage.name)

    def stage_leaving(self, engine, batch, stage):
        self._reach("stage_leaving", stage.name)

    def stage_synced(self, engine, batch, stage):
        self._reach("stage_synced", stage.name)

    def batch_done(self, engine, batch):
        if self.on_done is not None:
            self.on_done(batch)
        self._reach("batch_done")


def txn(name: str, *params) -> Transaction:
    return Transaction(name, tuple(params))


def tids(transactions) -> None:
    """Assign sequential TIDs in list order."""
    for i, t in enumerate(transactions):
        t.tid = i


def mixed_bank_registry():
    """:func:`build_bank` (32 accounts) with batched twins for
    ``deposit`` and ``transfer`` only — and ``transfer``'s twin sends
    its odd lanes to fallback — so one batch can hold vectorized,
    fallback and twin-less lanes."""
    db, registry = build_bank(accounts=32)

    @registry.register_batched("deposit")
    def deposit_b(bctx, p):
        lanes = bctx.active_lanes()
        keys = p.column(0)[lanes]
        amounts = p.column(1)[lanes]
        rows, found = bctx.rows_for_keys("accounts", lanes, keys)
        bctx.add("accounts", lanes[found], rows[found], "balance", amounts[found])

    @registry.register_batched("transfer")
    def transfer_b(bctx, p):
        lanes = bctx.active_lanes()
        # send odd lanes to the scalar re-run on purpose: the test wants
        # vectorized, fallback, and scalar-only lanes in the same batch
        odd = lanes % 2 == 1
        bctx.fall_back(lanes[odd])
        lanes = lanes[~odd]
        a = p.column(0)[lanes]
        b = p.column(1)[lanes]
        amount = p.column(2)[lanes]
        rows_a, found = bctx.rows_for_keys("accounts", lanes, a)
        lanes, rows_a, b, amount = lanes[found], rows_a[found], b[found], amount[found]
        bal_a = bctx.read_rows("accounts", lanes, rows_a, "balance")
        rows_b, found_b = bctx.rows_for_keys("accounts", lanes, b)
        lanes, rows_b = lanes[found_b], rows_b[found_b]
        bal_b = bctx.read_rows("accounts", lanes, rows_b, "balance")
        bctx.write(
            "accounts", lanes, rows_a[found_b], "balance",
            bal_a[found_b] - amount[found_b],
        )
        bctx.write("accounts", lanes, rows_b, "balance", bal_b + amount[found_b])

    return db, registry


def mixed_bank_specs() -> list[tuple[str, tuple]]:
    """One batch of ``(procedure, params)`` for
    :func:`mixed_bank_registry` that takes all three execution routes
    and has logic aborts (``bad``) and inserts."""
    specs: list[tuple[str, tuple]] = []
    for i in range(48):
        specs.append(("transfer", (i % 32, (i + 7) % 32, 1 + i % 5)))
        specs.append(("deposit", (i % 32, 2 + i % 3)))
        # audit/open_account/bad have no batched twins: whole groups run
        # through the engine's automatic per-transaction fallback
        specs.append(("audit", (i % 32, (i + 3) % 32)))
        if i % 11 == 0:
            specs.append(("open_account", (100 + i, 9)))
        if i % 13 == 0:
            specs.append(("bad", (i % 32,)))
    return specs




# -- the conformance lattice ---------------------------------------------------
# A cell is one batch source x one configuration x one route.  The engine
# under test and the host-only oracle (reference_engine.ReferenceEngine)
# run the same stream, and every observable must agree; each batch the
# engine runs is also replayed serially in its witness order.

#: All five TPC-C procedures, so delivery/orderstatus/stocklevel twins
#: (secondary-index probes, range-ish reads, fallback lanes) all run.
FULL_MIX = TpccMix(
    neworder=0.4, payment=0.3, orderstatus=0.1, stocklevel=0.1, delivery=0.1
)

_SCALE = TpccScale(warehouses=2, num_items=2000)
_NO_ITEM = 10**9  # no such item (nor stock row)


def neworder_spec(o_id, items, w=0, c=5, rollback=0):
    """A NewOrder spec: ``items`` ordered 3 at a time by customer ``c``
    of district (0, 1); ``w`` names the stock rows' warehouse."""
    flat = [x for item in items for x in (item, 3)]
    c_key = _SCALE.customer_key(0, 1, c)
    return ("neworder", (w, 1, c_key, o_id, rollback, *flat))


def payment_spec(h_id):
    return ("payment", (1, 2, _SCALE.customer_key(1, 2, h_id), 100, h_id))


#: TPC-C NewOrder, every way a lane's item loop stops: cell -> (batches,
#: logic aborts among them).  Each batch's other lanes run the whole
#: loop, so a short lane shares its group with complete ones.
NEWORDER_CELLS = {
    "item-missing-first": ([[neworder_spec(1, [_NO_ITEM, 11, 12, 13]), neworder_spec(2, [21, 22])]], 1),
    "item-missing-middle": ([[neworder_spec(1, [11, 12, _NO_ITEM, 13, 14]), neworder_spec(2, [21, 22])]], 1),
    "item-missing-last": ([[neworder_spec(1, [11, 12, 13, 14, _NO_ITEM]), neworder_spec(2, [21, 22])]], 1),
    # warehouse 2 does not exist: the item reads, its stock row is missing
    "stock-missing": ([[neworder_spec(1, [11, 12, 13], w=2), neworder_spec(2, [21, 22])]], 1),
    # the second batch reuses o_id 1, whose order lines the first installed
    "order-line-taken": ([
        [neworder_spec(1, [11, 12, 13]), neworder_spec(2, [21, 22])],
        [neworder_spec(1, [31, 32]), neworder_spec(3, [41, 42, 43])],
    ], 1),
    "rollback": ([[neworder_spec(1, [11, 12, 13], rollback=1), neworder_spec(2, [21, 22])]], 1),
    "repeated-item": ([[neworder_spec(1, [11, 12, 11]), neworder_spec(2, [21, 22])]], 0),
    "customer-missing": ([[neworder_spec(1, [11, 12], c=10**6), neworder_spec(2, [21, 22])]], 1),
    "1-and-15-items": (
        [[neworder_spec(1, [11]), neworder_spec(2, range(100, 115)), neworder_spec(3, [31, 32])]], 0,
    ),
    "one-lane-group": ([[payment_spec(1), neworder_spec(1, [11, 12, 13]), payment_spec(2)]], 0),
    "all-at-once": ([
        [neworder_spec(1, [11, 12]), neworder_spec(2, [21, 22])],
        [
            neworder_spec(3, [_NO_ITEM, 11]), neworder_spec(4, [12, 13, _NO_ITEM, 14]),
            neworder_spec(5, [15, 16], w=2), neworder_spec(1, [17]),
            neworder_spec(6, [18, 19], rollback=1), neworder_spec(7, [20, 21, 20]),
            neworder_spec(8, [22], c=10**6), neworder_spec(9, range(200, 215)),
            neworder_spec(10, [23]), payment_spec(3),
        ],
    ], 6),
}


def small_tpcc(mix: TpccMix = FULL_MIX, num_items: int = 2000, warehouses: int = 2):
    """``(database, registry, config marks, generator)``: a small TPC-C
    with its delayed and split columns marked."""
    db, registry, gen = build_tpcc(
        warehouses=warehouses, num_items=num_items, mix=mix, seed=7
    )
    return db, registry, dict(
        delayed_columns=DELAYED_COLUMNS, split_columns=SPLIT_COLUMNS
    ), gen


def ledger(accounts: int = 16):
    """An ``accounts`` table (``balance``, ``flags``, ``note``) and
    procedures that each lean on one rule of the batch's key order.
    ``rewrite`` and ``deposit`` have twins; ``rewrite``'s sends every
    lane whose account is a multiple of three to fallback."""
    db = Database("ledger")
    db.create_table(
        make_schema("accounts", "acct_id", "balance", "flags", "note")
    ).bulk_load(
        np.arange(accounts, dtype=np.int64),
        {"balance": np.full(accounts, 1000, dtype=np.int64)},
    )
    registry = ProcedureRegistry()

    @registry.register("rewrite")
    def rewrite(ctx, a, b):
        # write, add, write the same cell; then adds after the last
        # write, on it and on a second account
        ctx.write("accounts", a, "balance", 100 + a)
        ctx.add("accounts", a, "balance", 5)
        ctx.write("accounts", a, "balance", 200 + a)
        ctx.add("accounts", a, "balance", 3)
        ctx.add("accounts", b, "balance", 1)
        ctx.add("accounts", a, "balance", 4)
        ctx.add("accounts", b, "note", 2)

    @registry.register_batched("rewrite")
    def rewrite_b(bctx, p):
        lanes = bctx.active_lanes()
        bctx.fall_back(lanes[p.column(0)[lanes] % 3 == 0])
        lanes = bctx.active_lanes()
        a, b = p.column(0)[lanes], p.column(1)[lanes]
        ra, _ = bctx.rows_for_keys("accounts", lanes, a)
        rb, _ = bctx.rows_for_keys("accounts", lanes, b)
        bctx.write("accounts", lanes, ra, "balance", 100 + a)
        bctx.add("accounts", lanes, ra, "balance", 5)
        bctx.write("accounts", lanes, ra, "balance", 200 + a)
        bctx.add("accounts", lanes, ra, "balance", 3)
        bctx.add("accounts", lanes, rb, "balance", 1)
        bctx.add("accounts", lanes, ra, "balance", 4)
        bctx.add("accounts", lanes, rb, "note", 2)

    @registry.register("deposit")
    def deposit(ctx, a, amount):
        ctx.add("accounts", a, "balance", amount)
        ctx.add("accounts", a, "flags", 1)

    @registry.register_batched("deposit")
    def deposit_b(bctx, p):
        lanes = bctx.active_lanes()
        # a missing account logic-aborts the lane (the scalar
        # KeyNotFound path)
        rows, found = bctx.rows_for_keys("accounts", lanes, p.column(0)[lanes])
        lanes, rows = lanes[found], rows[found]
        bctx.add("accounts", lanes, rows, "balance", p.column(1)[lanes])
        bctx.add("accounts", lanes, rows, "flags", 1)

    @registry.register("audit")
    def audit(ctx, a, b):
        ctx.read("accounts", a, "balance")
        ctx.read("accounts", b, "note")
        ctx.read("accounts", a, "note")

    @registry.register("open_and_read")
    def open_and_read(ctx, key, a):
        ctx.insert("accounts", key, {"balance": 7, "note": key})
        ctx.read("accounts", key, "balance")  # the lane's own insert
        ctx.add("accounts", a, "flags", 1)
        ctx.read("accounts", key, "note")

    @registry.register("bad")
    def bad(ctx, a):
        ctx.write("accounts", a, "flags", 1)
        ctx.add("accounts", a, "balance", 9)
        ctx.abort("always rolls back")

    return db, registry


def key_order_specs(case: str) -> list[tuple[str, tuple]]:
    """One 64-lane batch of :func:`ledger` specs that leans on one rule
    of the key order."""
    lanes, n = 64, 16
    if case == "write-add-write":
        return [("rewrite", (i % n, (i + 5) % n)) for i in range(lanes)]
    if case == "adds-after-write":
        return [
            ("rewrite", (i % n, (i * 7) % n)) if i % 2 else ("deposit", (i % n, i))
            for i in range(lanes)
        ]
    if case == "delayed-adds":
        return [
            ("deposit", ((i * 3) % n, 1 + i)) if i % 3 else ("audit", (i % n, 0))
            for i in range(lanes)
        ]
    if case == "own-insert-reads":
        return [
            ("open_and_read", (1000 + i // 3, i % n)) if i % 4 else ("rewrite", (i % n, 0))
            for i in range(lanes)
        ]
    if case == "fallback-next-to-twins":
        return [
            ("rewrite", (i % n, (i + 1) % n)) if i % 2 else ("audit", (i % n, (i + 2) % n))
            for i in range(lanes)
        ]
    if case == "logic-aborts":
        return [
            ("bad", (i % n,)) if i % 5 == 0
            else ("deposit", (i if i % 7 == 0 else i % n, 2))  # i % 7: missing key
            if i % 2 else ("rewrite", (i % n, (i + 3) % n))
            for i in range(lanes)
        ]
    if case.startswith("popular"):
        # four rows under 64 lanes: E = 16, so s_u = 32 with dynamic
        # buckets and 1 without
        return [
            ("audit", (i % 4, (i + 1) % 4)) if i % 3 else ("deposit", (i % 4, 1))
            for i in range(lanes)
        ]
    raise KeyError(case)


#: The hand-built key-order cases: case -> (config overrides, accounts).
KEY_ORDER_CASES = {
    "write-add-write": ({}, 16),
    "adds-after-write": ({}, 16),
    "delayed-adds": (dict(delayed_columns=frozenset({("accounts", "flags")})), 16),
    "own-insert-reads": ({}, 16),
    "fallback-next-to-twins": ({}, 16),
    "logic-aborts": ({}, 16),
    "popular-su1": (dict(dynamic_buckets=False), 4),
    "popular-su32": (dict(dynamic_buckets=True), 4),
}


def churn_bank():
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


#: One churn batch: lanes 0-5 churn their own cell and share two delayed
#: cells; lane 3 rolls back after emitting the lot; lanes 6/7 collide on
#: one cell (the later one aborts, so its resolved cells must not
#: install); the deposits are plain adds in a second procedure group.
CHURN_SPECS = (
    [("churn", (i, 20 + i % 2, 10 + i, int(i == 3))) for i in range(6)]
    + [("churn", (9, 20, 5, 0)), ("churn", (9, 21, 6, 0))]
    + [("deposit", (i, 4)) for i in range(10, 14)]
)


class ContentionBank:
    """A bank-schema generator over the contention dimensions of GPU
    concurrency-control comparisons: a hot set of ``hot`` accounts,
    each of a transaction's ``ops`` distinct accounts read and — with
    probability ``writes`` — written (``touch``; twin included)."""

    def __init__(self, hot: int, writes: float, ops: int, seed: int = 5):
        self.hot, self.writes, self.ops = hot, writes, ops
        self.rng = np.random.default_rng(seed)

    def build(self):
        db, registry = build_bank(accounts=max(self.hot, 64))
        ops = self.ops

        @registry.register("touch")
        def touch(ctx, mask, *keys):
            for i, key in enumerate(keys):
                value = ctx.read("accounts", key, "balance")
                if mask >> i & 1:
                    ctx.write("accounts", key, "balance", value + 1)

        @registry.register_batched("touch")
        def touch_b(bctx, p):
            lanes = bctx.active_lanes()
            mask = p.column(0)[lanes]
            for i in range(ops):
                keys = p.column(1 + i)[lanes]
                rows, found = bctx.rows_for_keys("accounts", lanes, keys)
                rows = rows[found]
                value = bctx.read_rows("accounts", lanes[found], rows, "balance")
                w = ((mask >> i) & 1) == 1
                bctx.write("accounts", lanes[w], rows[w], "balance", value[w] + 1)

        return db, registry, {}, self

    def make_batch(self, size: int) -> list[Transaction]:
        out = []
        for _ in range(size):
            keys = self.rng.choice(self.hot, self.ops, replace=False).tolist()
            bits = (self.rng.random(self.ops) < self.writes).tolist()
            mask = sum(1 << i for i, bit in enumerate(bits) if bit)
            out.append(Transaction("touch", (mask, *keys)))
        return out


#: How many of a generated source's transactions a served route posts.
SERVED_REQUESTS = 160


class Source:
    """A batch source: ``build()`` returns ``(database, registry,
    config marks, stream)`` fresh, where ``stream`` is a generator
    (``make_batch``) or a list of hand-built batches of ``(procedure,
    params)``.  A generated source runs ``rounds`` batches of ``lanes``
    (a hand-built one's ``lanes`` is its batch size), and serves its
    first :data:`SERVED_REQUESTS` transactions."""

    def __init__(self, build, lanes=64, rounds=3):
        self.build, self.lanes, self.rounds = build, lanes, rounds

    def setup(self, served: bool = False):
        """``(database, registry, marks, batches, stream)``: a generated
        source draws one ``make_batch(lanes)`` per batch, and its
        ``stream`` of specs is those batches' lanes — or, ``served``,
        :data:`SERVED_REQUESTS` requests drawn one at a time, as an
        ingress draws them."""
        db, registry, marks, gen = self.build()
        if not hasattr(gen, "make_batch"):
            return db, registry, marks, gen, None

        def draw(n):
            return [(t.procedure_name, t.params) for t in gen.make_batch(n)]

        if served:
            return db, registry, marks, None, [
                spec for _ in range(SERVED_REQUESTS) for spec in draw(1)
            ]
        batches = [draw(self.lanes) for _ in range(self.rounds)]
        return db, registry, marks, batches, [s for batch in batches for s in batch]


def _workload(name: str, seed: int = 7):
    setup = build_workload(name, seed)
    return setup.database, setup.registry, setup.config_kwargs, setup.generator


def _ycsb(delayed=False, **kwargs):
    db, registry, gen = build_ycsb(num_records=2000, **kwargs)
    marks = dict(delayed_columns=ycsb_delayed_columns()) if delayed else {}
    return db, registry, marks, gen


def _smallbank():
    db, registry, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    return db, registry, {}, gen


def _tpcc_bench():
    """The bench's TPC-C 50/50 at 8 warehouses and scale 64, with the
    markings of its configuration (``repro.bench.ltpg_config``)."""
    bench = tpcc_bench(warehouses=8, neworder_pct=50, scale=64.0, seed=7)
    marks = dict(
        delayed_columns=DELAYED_COLUMNS, split_columns=SPLIT_COLUMNS,
        hot_tables=HOT_TABLES,
    )
    return bench.database, bench.registry, marks, bench.generator


def _tpcc_no_twins():
    """TPC-C 50/50 on a registry with no twins: under the default
    configuration every lane is a scalar lane."""
    db, registry, marks, gen = small_tpcc(TpccMix.neworder_percentage(50))
    twin_less = ProcedureRegistry()
    for name in registry.names():
        twin_less.register(name, registry.get(name))
    return db, twin_less, marks, gen


def _bank(registry_of, batches, **marks):
    return lambda: (*registry_of(), marks, batches)


def _key_order(case):
    overrides, accounts = KEY_ORDER_CASES[case]
    specs = key_order_specs(case)
    return _bank(lambda: ledger(accounts), [specs, specs[:32]], **overrides)


#: The one source checked against numpy instead of the oracle.
HEADLINE = "tpcc-headline"

#: source -> Source.  Generated sources first, then hand-built batches.
#: A cell may name a source at another size: ``"smallbank@1024x3"`` is
#: three batches of 1,024 lanes (:func:`source_of`).
SOURCES: dict[str, Source] = {
    "tpcc": Source(lambda: _workload("tpcc")),
    "tpcc-full-mix": Source(small_tpcc),
    "tpcc-bench": Source(_tpcc_bench),
    "tpcc-no-twins": Source(_tpcc_no_twins),
    # NewOrders of 5-15 lines over 40 items: most repeat an item, and a
    # repeated item sends the lane to fall_back
    "tpcc-repeated-items": Source(
        lambda: small_tpcc(TpccMix.neworder_percentage(100), num_items=40)
    ),
    # the paper's 2^14 headline batch: mockgpu against numpy only
    "tpcc-headline": Source(small_tpcc, lanes=16_384, rounds=1),
    "ycsb": Source(lambda: _workload("ycsb")),
    "ycsb-a": Source(lambda: _ycsb(workload="a", zipf_alpha=2.5, seed=11)),
    "ycsb-a-delayed": Source(
        lambda: _ycsb(True, workload="a", zipf_alpha=2.5, seed=11)
    ),
    "ycsb-a-z12": Source(lambda: _ycsb(True, workload="a", zipf_alpha=1.2, seed=5)),
    "ycsb-rmw": Source(
        lambda: _ycsb(workload="a", zipf_alpha=1.2, seed=5, commutative_updates=False)
    ),
    "ycsb-e": Source(
        lambda: _ycsb(workload="e", zipf_alpha=0.9, seed=11, btree_scans=True),
        lanes=32,
    ),
    "smallbank": Source(lambda: _workload("smallbank")),
    "smallbank-500": Source(_smallbank),
    "one-lane": Source(lambda: _workload("smallbank"), lanes=1, rounds=6),
    # every lane read-modify-writes one cell: a WAW chain as long as the batch
    "waw-chain": Source(lambda: ContentionBank(1, 1.0, 1).build(), lanes=32, rounds=2),
    **{
        f"contention-h{hot}-w{int(writes * 100)}-o{ops}": Source(
            lambda args=(hot, writes, ops): ContentionBank(*args).build()
        )
        for hot in (4, 64)
        for writes in (0.2, 1.0)
        for ops in (1, 4)
    },
    "mixed-bank": Source(
        _bank(mixed_bank_registry, [mixed_bank_specs(), mixed_bank_specs()[::-1]]),
        lanes=256,
    ),
    # groups of one or two lanes, down to a one-transaction batch
    "small-groups": Source(_bank(mixed_bank_registry, [
        [("deposit", (1, 5)), ("deposit", (2, 7)), ("transfer", (3, 4, 1))],
        [("deposit", (5, 1))],
    ]), lanes=256),
    "all-logic-aborts": Source(
        _bank(build_bank, [[("bad", (i % 8,)) for i in range(32)]] * 2)
    ),
    "churn": Source(_bank(
        churn_bank, [CHURN_SPECS, CHURN_SPECS],
        delayed_columns=frozenset({("accounts", "flags")}),
    )),
    **{
        f"neworder:{cell}": Source(
            lambda batches=batches: (*small_tpcc()[:3], batches)
        )
        for cell, (batches, _) in NEWORDER_CELLS.items()
    },
    **{
        f"key-order:{case}": Source(_key_order(case), lanes=64)
        for case in KEY_ORDER_CASES
    },
    **{
        f"key-order:{name}": Source(lambda name=name: _workload(name, 3), lanes=256, rounds=1)
        for name in ("ycsb", "smallbank")
    },
}


def source_of(name: str) -> Source:
    """The :data:`SOURCES` entry ``name`` names, at the size an
    ``@<lanes>x<rounds>`` suffix gives."""
    base, _, size = name.partition("@")
    src = SOURCES[base]
    if size:
        lanes, rounds = map(int, size.split("x"))
        src = Source(src.build, lanes, rounds)
    return src


#: configuration -> what it does to the source's ``LTPGConfig``
CONFIGS = {
    "default": lambda c: c,
    "twin-less": lambda c: replace(c, batched_exec=False),
    "mockgpu": lambda c: replace(c, array_backend="mockgpu"),
    "mockgpu-twin-less": lambda c: replace(c, array_backend="mockgpu", batched_exec=False),
    "no-opts": LTPGConfig.without_optimizations,
    "pipelined": lambda c: replace(c, pipelined=True),
    "trace": lambda c: replace(c, trace=True),
}

#: The configurations that change what the oracle must compute; every
#: other one (host-side choices) meets the default oracle.
OWN_ORACLE = ("no-opts", "pipelined")

#: Per-source overrides off the direct route: YCSB-A with delayed
#: updates commits everything, so it never retries.
RETRYING = {"ycsb": dict(delayed_update=False, logical_reordering=False)}


class ExecuteFences(BatchObserver):
    """Counts the residency fences that land inside the execute stage."""

    grown = 0

    def stage_entered(self, engine, batch, stage):
        if stage.name == "execute":
            self._before = engine._residency.stats.fences

    def stage_leaving(self, engine, batch, stage):
        if stage.name == "execute":
            self.grown += engine._residency.stats.fences - self._before


def observe_cell(
    source, config: str = "default", route: str = "direct",
    oracle: bool = False, records=(), replay: bool = True,
):
    """One cell's observation and the engine that made it: run
    ``source`` (a :data:`SOURCES` name or a :class:`Source`) on the
    ``config`` engine — or, ``oracle=True``, on a
    :class:`~reference_engine.ReferenceEngine` — along ``route``:

    * ``direct``: TIDs assigned, ``run_batch`` per batch;
    * ``driven``: :func:`repro.txn.batch.drive` — a generated source
      topped up with fresh lanes for ``rounds`` cuts, a hand-built one
      admitted whole and drained — so aborts re-queue;
    * ``served:<policy>:<lanes>``: the source's requests posted to an
      :class:`~repro.serve.orchestrator.Orchestrator` on the virtual
      clock.  The oracle drives the same stream (``size``) or replays
      the served cut ``records`` (``deadline`` / ``hybrid``).

    Records, per batch, every ``BatchStats`` field; per lane the tid,
    status, abort reason, attempts and ``ops.raw``; the committed TIDs;
    and a state digest — the oracle's own, or, for the engine, that of
    a copy of the initial state on which every batch's commits were
    replayed serially in the engine's witness order (``replay``; a host
    engine's own digest must equal it after every batch).  Then
    the batch log, served requests' verdicts, the final digest and every
    table's keys in slot order (the digest orders rows by key)."""
    src = source_of(source) if isinstance(source, str) else source
    kind, *served = route.split(":")
    db, registry, marks, batches, stream = src.setup(kind == "served")
    policy, lanes = (served[0], int(served[1])) if served else (None, src.lanes)
    if kind != "direct" and isinstance(source, str):
        marks = {**marks, **RETRYING.get(source.partition("@")[0], {})}
    cfg = CONFIGS[config](LTPGConfig(batch_size=lanes, **marks))
    engine = (ReferenceEngine if oracle else LTPGEngine)(db, registry, cfg)
    fences = ExecuteFences()
    if cfg.array_backend == "mockgpu":
        engine.observers += (fences,)
    seen: list = []
    run = engine.run_batch
    # the engine's commits replayed serially: a host copy that no
    # engine touches, so no fence lands between a device's batches
    serial = db.copy() if replay and not oracle else None

    def run_batch(batch):
        result = run(batch)
        digest = db.state_digest() if oracle else None
        if serial is not None:
            replay_in_witness_order(serial, registry, result)
            digest = serial.state_digest()
            if cfg.array_backend == "numpy":
                # a host engine's state is readable without a fence
                assert db.state_digest() == digest
        seen.append((
            dataclasses.asdict(result.stats),
            [(t.tid, t.status, t.abort_reason, t.attempts, t.ops.raw) for t in batch],
            sorted(t.tid for t in result.committed),
            digest,
        ))
        return result

    engine.run_batch = run_batch
    specs = stream or [s for b in batches for s in b]
    out: dict = {}
    with engine:
        scheduler = BatchScheduler(lanes)
        if kind == "direct":
            next_tid = 0
            for batch in batches:
                txns = [Transaction(*spec) for spec in batch]
                next_tid = assign_tids(txns, next_tid)
                engine.run_batch(txns)
        elif kind == "driven" and stream:
            fresh = iter(stream)
            for _ in drive(
                engine, scheduler,
                lambda n: [Transaction(*s) for s in itertools.islice(fresh, n)],
                max_batches=src.rounds,
            ):
                pass
        elif kind == "driven" or (oracle and policy == "size"):
            txns = [Transaction(*spec) for spec in specs]
            scheduler.admit(txns)
            for _ in drive(engine, scheduler):
                pass
            if kind == "served":
                out["requests"] = [(t.status, t.tid, t.attempts) for t in txns]
        elif oracle:
            txns = [Transaction(*spec) for spec in specs]
            for seqs, tids in records:
                for seq, tid in zip(seqs, tids):
                    assert txns[seq].tid in (-1, tid), "a retry keeps its TID"
                    txns[seq].tid = tid
                if seqs:
                    engine.run_batch([txns[seq] for seq in seqs])
            out["requests"] = [(t.status, t.tid, t.attempts) for t in txns]
        else:
            responses, orch = run_simulation(
                _serve(engine, policy, lanes, specs)
            )
            out["requests"] = [(r.status, r.tid, r.attempts) for r in responses]
            out["records"] = tuple(
                (tuple(r.seqs), tuple(r.tids)) for r in orch.batch_records
            )
        out["log"] = [
            (e.batch_index, e.committed_tids.tolist()) for e in engine.batch_log.batches()
        ]
    out["batches"] = seen
    out["digest"] = db.state_digest()
    out["slots"] = [t._keys[: t.num_rows].tobytes() for t in db.tables]
    if not oracle:
        backend = engine._backend
        ledger = backend.transfer_stats()
        if backend.name == "mockgpu":
            # the device contract: every host round-trip inside a kernel
            # phase went through an explicit crossing, nothing upcast to
            # float, real traffic flowed if anything committed, and
            # execute fenced no column
            assert ledger.implicit_syncs == 0
            assert backend.upcasts == []
            if any(committed for _, _, committed, _ in seen):
                assert ledger.h2d_count > 0 and ledger.d2h_count > 0
            assert fences.grown == 0
        else:
            # the host has no device: its ledger stays zero
            assert not any(ledger.snapshot().values())
    return out, engine


async def _serve(engine, policy: str, lanes: int, specs):
    """Post ``specs`` in order on the virtual clock (dense arrivals
    under a deadline, so its cuts still form conflict-heavy batches)."""
    gap_ns = 150 if policy == "size" else 40
    async with Orchestrator(
        engine, policy=make_policy(policy, lanes, max_wait_ns=2_000)
    ) as orch:
        tickets = []
        for procedure, params in specs:
            await orch.clock.sleep_ns(gap_ns)
            tickets.append(orch.post(procedure, params))
    return [await t for t in tickets], orch


@functools.cache
def oracle_cell(source: str, config: str, route: str, records: tuple) -> dict:
    """The oracle's observation of a cell, once per (source, oracle
    configuration, route, served cuts)."""
    return observe_cell(source, config, route, oracle=True, records=records)[0]


@functools.cache
def check_cell(source: str, config: str = "default", route: str = "direct"):
    """Assert that one lattice cell observes what its oracle does; return
    its :class:`Cell` summary.  Cached, so a cell that several tests name
    runs once per test run; a mutation check calls
    ``check_cell.__wrapped__``."""
    if source == HEADLINE:
        # the per-op oracle is too slow at 2^14 lanes: numpy stands in
        cell, engine = observe_cell(source, config, route, replay=False)
        expected = observe_cell(source, "default", route, replay=False)[0]
    else:
        cell, engine = observe_cell(source, config, route)
        own = config if config in OWN_ORACLE else "default"
        cuts = cell.get("records", ()) if "size" not in route else ()
        expected = oracle_cell(source, own, route, cuts)
    records = cell.pop("records", ())
    assert cell == expected, first_difference(cell, expected)
    # engine batches are numbered densely, as logged: an empty cut runs
    # nothing and takes no index
    indices = [stats["batch_index"] for stats, *_ in cell["batches"]]
    assert indices == [i for i, _ in cell["log"]] == list(range(len(indices)))
    ledger = engine._backend.transfer_stats()
    return Cell(
        frozenset(ledger.events),
        ledger.snapshot(),
        tuple(len(seqs) for seqs, _ in records),
        any(lane[3] > 1 for _, lanes, *_ in cell["batches"] for lane in lanes),
    )


class Cell(NamedTuple):
    """What a checked cell leaves behind: its distinct transfer-ledger
    events and ledger totals (none on numpy), a served cell's cut sizes,
    and whether any lane ran more than once."""

    events: frozenset
    ledger: dict
    cuts: tuple
    retried: bool


def first_difference(cell: dict, expected: dict) -> str:
    """Where ``cell`` first leaves ``expected``, in words."""
    key = next(k for k in expected if cell.get(k) != expected[k])
    got, want = cell[key], expected[key]
    if key != "batches" or len(got) != len(want):
        return f"{key} differs"
    i = next(i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1])
    fields = sorted(k for k, v in want[i][0].items() if got[i][0][k] != v)
    return f"batch {i} differs; BatchStats fields {fields}"


def run_specs(engine, batches):
    """Run each batch of ``(procedure, params)`` on ``engine``, TIDs in
    lane order, for a test that counts what the engine does (a
    differential test is a :func:`check_cell`); returns each lane's
    (status, abort reason) per batch and the final digest."""
    out = []
    for specs in batches:
        batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
        engine.run_batch(batch)
        out.append([(t.status, t.abort_reason) for t in batch])
    return out, engine.database.state_digest()


def canonical(obj):
    """``obj`` as JSON-able data: mappings become sorted ``[str(key),
    value]`` pairs, bytes hex, anything else not JSON its ``str``."""
    if isinstance(obj, dict):
        return sorted([str(k), canonical(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, bytes):
        return obj.hex()
    return obj if isinstance(obj, (int, float, str, type(None))) else str(obj)


def observation_hash(source: str, config: str, route: str) -> str:
    """sha256 of a cell's canonical observation, to compare processes."""
    cell = observe_cell(source, config, route)[0]
    return hashlib.sha256(json.dumps(canonical(cell)).encode()).hexdigest()
