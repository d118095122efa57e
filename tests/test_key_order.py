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
bucket-slot addresses, computed here from the reservations.  The
hand-built cases live in ``helpers`` (:data:`helpers.KEY_ORDER_CASES`),
where the conformance lattice also meets each against the oracle; their
pins stay here.
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
from repro.txn import Transaction
from repro.txn.batch import BatchScheduler, drive, step
from repro.txn.operations import OpKind
from repro.validate import replay_in_witness_order

from helpers import (
    KEY_ORDER_CASES,
    BoundaryObserver,
    canonical,
    key_order_specs,
    ledger,
)

LANES = 64


#: shipped workloads: one procedure group (YCSB) and six (SmallBank)
GENERATED = {"ycsb": 1, "smallbank": 6}

CASES = sorted(KEY_ORDER_CASES) + sorted(GENERATED)

#: The conflict log's insert reservations and winners, and a twin
#: group's insert record: sorts over the batch's inserts, not its keyed
#: ops.
INSERT_PATHS = frozenset({"register_inserts", "insert_winners", "_resolve_inserts"})

#: case -> (sha256 of every batch's ``BatchStats``, final state digest)
PINS: dict[str, tuple[str, str]] = {
    "adds-after-write": (
        "01d8345ca9c4cf3d6938723a524e8b8b689702b21992375fa9056cf72680fbbb",
        "13913c7f27734a65e6629ae8c79f1ed42eb9cc50af65c9c4c6fdb9f2829d80b7",
    ),
    "delayed-adds": (
        "442bc5db1d8a95f47ff1cb320eb1ac251c3c08b372ae61a65108510ee1afde1c",
        "5b2ed9887453425ed5aab7c028ea6a52a3f3f9fa4510bc2a904ad3b397cf5c6b",
    ),
    "fallback-next-to-twins": (
        "8791739a7b696513314f306a651469d10d3a63bdeeb11eaacde2c8acde038344",
        "8afe8b07683420ae5d0196ba8feebf745bf4d80706c527f4b9c849c79d737e3a",
    ),
    "logic-aborts": (
        "3e7e537c4795671127a1d2cbb67cbbc06c545d29b4c9e45d5adf68fb048c8531",
        "18855cbc54ebe67634973aaf94a6b5c7b8c31dc71c6912ef2c3cf9b602cbb0cd",
    ),
    "own-insert-reads": (
        "35545d2110bea615859c50857f55520f549d82964ba9846c00e212f9a6d2ec66",
        "b3cc1cc736223a34a898d8d90a2709fdb00a1e5e34b2de9179abd9ec8973887c",
    ),
    "popular-su1": (
        "1d2c50375b5e16afac301598d51482a7948a76990e118db021d81551612b5182",
        "c4d2cddc9ba5a7d6dc2201bd6c7b7515ff06624f48fb32a9ee44dab8ad9bc10a",
    ),
    "popular-su32": (
        "7da9311bdd95ffb1af5690172e89943905cea1a11549f5380779f73687cc10a5",
        "c4d2cddc9ba5a7d6dc2201bd6c7b7515ff06624f48fb32a9ee44dab8ad9bc10a",
    ),
    "write-add-write": (
        "a21d64f6f3a5b8a3087fe83904676cf0a425b05d8144161dabfd5a04434f0e2c",
        "134185230c9473ab94ffa1dfa5d9ccaf55ce3651f8b78b323759c6aa179db9e5",
    ),
    "smallbank": (
        "ac45474300c032a117457ceb58c8917602c930cce6d995ece906c760344a9475",
        "11efe4c850462bb4d0a736b2b5952592d9831a85bbbdd5af97d7ddd92b51e8c1",
    ),
    "ycsb": (
        "edca73e7ea9ae8666121c008646d923feb1dff34cd8a043f9b633fed3220a753",
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
    overrides, accounts = KEY_ORDER_CASES[case]
    db, registry = ledger(accounts)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=LANES, **overrides))
    specs = key_order_specs(case) + key_order_specs(case)[: LANES // 2]
    return engine, db, registry, [Transaction(name, p) for name, p in specs]


def _slots(log, res) -> np.ndarray:
    """Bucket-slot address of each registration: one slot per key on a
    standard table, ``s_u`` sub-slots picked by ``TID mod s_u`` on a
    popular one (paper §V-C)."""
    s_u = np.array([log.bucket_size(int(t)) for t in res.table], dtype=np.int64)
    smax = int(s_u.max()) if s_u.size else 1
    return res.key * smax + res.tid % s_u


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
    blob = json.dumps(canonical(stats), sort_keys=True).encode()
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
