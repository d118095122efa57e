"""Adversarial batches for the batch's key order.

The collector, the columnar locals and the conflict log all read one
order of the batch's ops.  Every case below is a hand-built batch that
leans on one rule that order has to keep — a lane that writes, adds
and writes one cell again; adds after the last write; delayed-column
adds; reads of a lane's own insert (row < 0); fallback lanes beside
twin lanes; logic aborts; a popular table's bucket slots; one and six
procedure groups — driven through :func:`repro.txn.batch.step`.  Each
batch must replay serially, in the engine's witness order, to the
state the engine left, and each case's ``BatchStats`` and final state
digest are pinned (:data:`PINS`).  On the popular table the execute
launch's atomic counts must also equal ``collision_profile`` over the
bucket-slot addresses, computed here from the reservations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest

from repro.analysis.workload import build_workload
from repro.core import LTPGConfig, LTPGEngine
from repro.gpusim.atomics import collision_profile
from repro.storage import Database, make_schema
from repro.txn import ProcedureRegistry, Transaction
from repro.txn.batch import BatchScheduler, drive, step
from repro.txn.operations import OpKind
from repro.validate import replay_in_witness_order

from helpers import BoundaryObserver

ACCOUNTS = 16
LANES = 64


def _ledger(accounts: int = ACCOUNTS):
    """An ``accounts`` table (``balance``, ``flags``, ``note``) and
    procedures that each lean on one rule of the key order.  ``rewrite``
    and ``deposit`` have twins; ``rewrite``'s sends every lane whose
    account is a multiple of three to fallback."""
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


def _specs(case: str) -> list[tuple[str, tuple]]:
    n = ACCOUNTS
    if case == "write-add-write":
        return [("rewrite", (i % n, (i + 5) % n)) for i in range(LANES)]
    if case == "adds-after-write":
        return [
            ("rewrite", (i % n, (i * 7) % n)) if i % 2 else ("deposit", (i % n, i))
            for i in range(LANES)
        ]
    if case == "delayed-adds":
        return [
            ("deposit", ((i * 3) % n, 1 + i)) if i % 3 else ("audit", (i % n, 0))
            for i in range(LANES)
        ]
    if case == "own-insert-reads":
        return [
            ("open_and_read", (1000 + i // 3, i % n)) if i % 4 else ("rewrite", (i % n, 0))
            for i in range(LANES)
        ]
    if case == "fallback-next-to-twins":
        return [
            ("rewrite", (i % n, (i + 1) % n)) if i % 2 else ("audit", (i % n, (i + 2) % n))
            for i in range(LANES)
        ]
    if case == "logic-aborts":
        return [
            ("bad", (i % n,)) if i % 5 == 0
            else ("deposit", (i if i % 7 == 0 else i % n, 2))  # i % 7: missing key
            if i % 2 else ("rewrite", (i % n, (i + 3) % n))
            for i in range(LANES)
        ]
    if case.startswith("popular"):
        # four rows under 64 lanes: E = 16, so s_u = 32 with dynamic
        # buckets and 1 without
        return [
            ("audit", (i % 4, (i + 1) % 4)) if i % 3 else ("deposit", (i % 4, 1))
            for i in range(LANES)
        ]
    raise KeyError(case)


#: case -> (config overrides, accounts)
HAND_BUILT = {
    "write-add-write": ({}, ACCOUNTS),
    "adds-after-write": ({}, ACCOUNTS),
    "delayed-adds": (dict(delayed_columns={("accounts", "flags")}), ACCOUNTS),
    "own-insert-reads": ({}, ACCOUNTS),
    "fallback-next-to-twins": ({}, ACCOUNTS),
    "logic-aborts": ({}, ACCOUNTS),
    "popular-su1": (dict(dynamic_buckets=False), 4),
    "popular-su32": (dict(dynamic_buckets=True), 4),
}

#: shipped workloads: one procedure group (YCSB) and six (SmallBank)
GENERATED = {"ycsb": 1, "smallbank": 6}

CASES = sorted(HAND_BUILT) + sorted(GENERATED)

#: The conflict log's insert reservations and winners, and a twin
#: group's insert record: sorts over the batch's inserts, not its keyed
#: ops.
INSERT_PATHS = frozenset({"register_inserts", "insert_winners", "_resolve_inserts"})

#: case -> (sha256 of every batch's ``BatchStats``, final state digest)
PINS: dict[str, tuple[str, str]] = {
    "adds-after-write": (
        "5cb45198c1ab08ec990c28824408b1656851b88b5c1e10f3e5ddaf070be49205",
        "13913c7f27734a65e6629ae8c79f1ed42eb9cc50af65c9c4c6fdb9f2829d80b7",
    ),
    "delayed-adds": (
        "a1a34ad58809e9264d7237cf930942e867936c9adc890bf68b8a15e5d6122f43",
        "5b2ed9887453425ed5aab7c028ea6a52a3f3f9fa4510bc2a904ad3b397cf5c6b",
    ),
    "fallback-next-to-twins": (
        "00801afc7f719a082446da9c64b79ed71bd6cfea62d6360d61d16862d31fc922",
        "8afe8b07683420ae5d0196ba8feebf745bf4d80706c527f4b9c849c79d737e3a",
    ),
    "logic-aborts": (
        "98856867de1299ecb1eaf138e952ca3c4a8374ff9ebb54b4accaead0e79d853a",
        "18855cbc54ebe67634973aaf94a6b5c7b8c31dc71c6912ef2c3cf9b602cbb0cd",
    ),
    "own-insert-reads": (
        "4080141533b8cf8326e81613e422c9a64a3a11f1771e7300658c4c46f7a0f19f",
        "b3cc1cc736223a34a898d8d90a2709fdb00a1e5e34b2de9179abd9ec8973887c",
    ),
    "popular-su1": (
        "2c6dd7e50fb47664aa3d407a59d5e95488087d497d5e8cf54b49a4394a3eff1b",
        "c4d2cddc9ba5a7d6dc2201bd6c7b7515ff06624f48fb32a9ee44dab8ad9bc10a",
    ),
    "popular-su32": (
        "5c379db76cf91e0e3c5bcdf2ddd9d947e7fcda5cee5a822cfb91af6ccb040ad1",
        "c4d2cddc9ba5a7d6dc2201bd6c7b7515ff06624f48fb32a9ee44dab8ad9bc10a",
    ),
    "write-add-write": (
        "a3f6c98f099f0e5e9883f49e981e849f165a6a4eb1bb1822b3acc889419a6fc1",
        "134185230c9473ab94ffa1dfa5d9ccaf55ce3651f8b78b323759c6aa179db9e5",
    ),
    "smallbank": (
        "93a2596621a5f8f0b14b9df9966dbbeabb05e424975c6c68646b9f3da196649e",
        "11efe4c850462bb4d0a736b2b5952592d9831a85bbbdd5af97d7ddd92b51e8c1",
    ),
    "ycsb": (
        "de730cec09774d433ba7d0d5990665c4e1b38e83e2ee307e2302bbc1c8fb6b16",
        "b2256a600019c7078db7ca2e486d96db7b84c9df1acdd7010567b452781a687a",
    ),
}


def _build(case: str):
    """``(engine, db, registry, transactions)`` for one case."""
    if case in GENERATED:
        setup = build_workload(case, seed=3)
        config = LTPGConfig(batch_size=256, **setup.config_kwargs)
        engine = LTPGEngine(setup.database, setup.registry, config)
        return engine, setup.database, setup.registry, setup.generator.make_batch(384)
    overrides, accounts = HAND_BUILT[case]
    db, registry = _ledger(accounts)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=LANES, **overrides))
    specs = _specs(case) + _specs(case)[: LANES // 2]
    return engine, db, registry, [Transaction(name, p) for name, p in specs]


def _slots(log, res) -> np.ndarray:
    """Bucket-slot address of each registration: one slot per key on a
    standard table, ``s_u`` sub-slots picked by ``TID mod s_u`` on a
    popular one (paper §V-C)."""
    s_u = np.array([log.bucket_size(int(t)) for t in res.table], dtype=np.int64)
    smax = int(s_u.max()) if s_u.size else 1
    return res.key * smax + res.tid % s_u


def _plain(obj):
    """JSON-able: mappings become sorted ``[str(key), value]`` pairs."""
    if isinstance(obj, dict):
        return sorted([str(k), _plain(v)] for k, v in obj.items())
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def _run(case: str):
    engine, db, registry, transactions = _build(case)
    seen = []
    engine.observers += (BoundaryObserver(batch_done=seen.append),)
    scheduler = BatchScheduler(engine.config.batch_size)
    scheduler.admit(transactions)
    stats = []
    with engine:
        while scheduler.has_work() and len(stats) < 4:
            before = db.copy()
            result = step(engine, scheduler, scheduler.next_batch())
            if result is None:
                continue
            replay_in_witness_order(before, registry, result)
            assert before.state_digest() == db.state_digest(), (case, len(stats))
            stats.append(dataclasses.asdict(result.stats))
            if case.startswith("popular"):
                batch = seen[-1]
                assert batch.inserts.size == 0
                profiles = [
                    collision_profile(_slots(engine.conflict_log, res))
                    for res in (batch.reads, batch.writes)
                ]
                assert (
                    result.stats.atomic_ops,
                    result.stats.atomic_serialized,
                    result.stats.max_atomic_chain,
                ) == (
                    sum(p[0] for p in profiles),
                    sum(p[1] for p in profiles),
                    max(p[2] for p in profiles),
                )
    if case in GENERATED:
        assert len(seen[0].group_names) == GENERATED[case], seen[0].group_names
    blob = json.dumps(_plain(stats), sort_keys=True).encode()
    return (hashlib.sha256(blob).hexdigest(), db.state_digest()), stats, seen


@pytest.mark.parametrize("case", CASES)
def test_adversarial_batch_replays_and_matches_its_pin(case):
    pin, stats, _ = _run(case)
    assert len(stats) >= 2, "every case runs a retry batch too"
    assert pin == PINS[case], pin


def test_the_cases_hold_what_they_name():
    _, stats, _ = _run("logic-aborts")
    assert stats[0]["logic_aborted"] > 0
    _, _, (batch, *_) = _run("delayed-adds")
    assert batch.batch_locals.delayed.size > 0
    _, _, (batch, *_) = _run("own-insert-reads")
    assert (batch.frame.cols[2] < 0).any()
    _, _, (batch, *_) = _run("write-add-write")
    locals_ = batch.batch_locals
    written = set(zip(locals_.writes.txn.tolist(), locals_.writes.row.tolist()))
    assert written & set(zip(locals_.adds.txn.tolist(), locals_.adds.row.tolist()))
    _, su32, _ = _run("popular-su32")
    _, su1, _ = _run("popular-su1")
    assert su32[0]["atomic_serialized"] < su1[0]["atomic_serialized"]
    assert su32[0]["max_atomic_chain"] < su1[0]["max_atomic_chain"]


def test_a_steady_tpcc_batch_sorts_its_ops_once(monkeypatch):
    """Execute -> conflict orders the batch's ops once.  Every sort,
    argsort, lexsort or unique of a one-dimensional array it calls is
    counted, except the insert paths' (:data:`INSERT_PATHS`, over the
    batch's inserts; a twin's per-lane row sort is two-dimensional):
    what is left is exactly one call, over the keyed ops — the
    collector's key order, which reservation dedup, the columnar
    locals, conflict-log registration and its collision counts all
    read.  (Warp planning's and the collision counts' ``unique`` calls
    are gone with it.)"""
    setup = build_workload("tpcc", seed=5)
    config = LTPGConfig(batch_size=1024, **setup.config_kwargs)
    engine = LTPGEngine(setup.database, setup.registry, config)
    sizes: list[int] = []
    window: list[str] = []

    class Window(BoundaryObserver):
        def stage_entered(self, engine, batch, stage):
            if stage.name in ("execute", "conflict"):
                window.append(stage.name)

        def stage_leaving(self, engine, batch, stage):
            window.clear()

    def counted(fn):
        def call(a, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in INSERT_PATHS:
                frame = frame.f_back
            a1 = a[0] if isinstance(a, tuple) else np.asarray(a)
            if window and frame is None and a1.ndim == 1:
                sizes.append(a1.size)
            return fn(a, *args, **kwargs)
        return call

    seen = []
    engine.observers += (BoundaryObserver(batch_done=seen.append),)
    with engine:
        stream = drive(engine, BatchScheduler(1024), fresh=setup.generator.make_batch)
        for _ in range(3):  # past the first batch: retries in the mix
            next(stream)
        engine.observers += (Window(),)
        with monkeypatch.context() as patch:
            for name in ("argsort", "lexsort", "sort", "unique"):
                patch.setattr(np, name, counted(getattr(np, name)))
            next(stream)
    batch = seen[-1]
    kind, row = batch.frame.cols[0], batch.frame.cols[2]
    keyed = (kind != OpKind.INSERT) & (row >= 0) & ~batch.logic_mask[batch.frame.txn]
    assert batch.inserts.size and batch.reads.size and batch.writes.size
    assert sizes == [int(keyed.sum())]
