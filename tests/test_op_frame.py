"""The batch-wide op frame (``OpFrame``) and the lazy ``Transaction.ops``.

The execute phase hands the collector one lane-major op matrix per
batch, whatever ran each lane's procedure; a transaction's ``ops`` is
cut out of it on first read.  Four guards:

* what a transaction shows — ``ops.raw``, status, abort reason — is what
  the test oracle's per-transaction loop records, on every execution
  route (twin lanes, ``fall_back`` lanes, logic aborts, twin-less
  groups);
* a frame is never written after its batch: ops read batches later are
  the ops of that attempt, and a retried transaction shows its latest;
* ``run_batch`` allocates garbage-collector-tracked objects per
  *group*, not per lane — a count, because a timer cannot tell a
  per-lane object creeping back from a noisy host — tracing included;
* every attribute of a ``Transaction`` / serve ``_Request`` exists from
  ``__init__`` on: one first stored later would move every instance off
  CPython's compact attribute layout.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from helpers import mixed_bank_registry, mixed_bank_specs
from reference_engine import ReferenceEngine
from repro.analysis.workload import build_workload
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import TransactionError
from repro.serve.clock import run_simulation
from repro.serve.orchestrator import Orchestrator
from repro.serve.policies import make_policy
from repro.txn import (
    BatchScheduler,
    OpColumns,
    Transaction,
    TxnStatus,
    assign_tids,
    drive,
)
from repro.txn.decompose import plan_naive
from repro.txn.operations import OpFrame
from repro.workloads.smallbank import build_smallbank
from repro.workloads.tpcc import DELAYED_COLUMNS, SPLIT_COLUMNS, TpccMix, build_tpcc
from repro.workloads.ycsb import build_ycsb
from repro.workloads.ycsb.generator import ycsb_delayed_columns

pytestmark = pytest.mark.batched

FULL_MIX = TpccMix(
    neworder=0.4, payment=0.3, orderstatus=0.1, stocklevel=0.1, delivery=0.1
)


def _tpcc():
    db, registry, gen = build_tpcc(
        warehouses=2, num_items=2000, mix=FULL_MIX, seed=7
    )
    return db, registry, gen, dict(
        delayed_columns=DELAYED_COLUMNS, split_columns=SPLIT_COLUMNS
    )


def _ycsb_a():
    db, registry, gen = build_ycsb(
        num_records=2000, workload="a", zipf_alpha=1.2, seed=5
    )
    return db, registry, gen, dict(delayed_columns=ycsb_delayed_columns())


def _ycsb_e():
    db, registry, gen = build_ycsb(
        num_records=2000, workload="e", zipf_alpha=0.9, seed=11, btree_scans=True
    )
    return db, registry, gen, {}


def _smallbank():
    db, registry, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    return db, registry, gen, {}


WORKLOADS = {
    "tpcc-full-mix": _tpcc,
    "ycsb-a": _ycsb_a,
    "ycsb-e": _ycsb_e,
    "smallbank": _smallbank,
}


def _observe(engine, batches):
    """Per batch: what every transaction shows after ``run_batch``."""
    out = []
    with engine:
        for specs in batches:
            batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
            engine.run_batch(batch)
            out.append(
                [(t.ops.raw, t.status, t.abort_reason, t.attempts) for t in batch]
            )
    return out


# -- (a) the frame shows what the per-transaction oracle records --------

@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_framed_ops_equal_the_columnar_path(workload):
    build = WORKLOADS[workload]
    _, _, gen, _ = build()
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(256)]
        for _ in range(2)
    ]

    db, registry, _, marks = build()
    expected = _observe(
        ReferenceEngine(db, registry, LTPGConfig(batch_size=256, **marks)),
        batches,
    )
    for batched_exec in (True, False):
        db, registry, _, marks = build()
        config = LTPGConfig(batch_size=256, batched_exec=batched_exec, **marks)
        assert _observe(LTPGEngine(db, registry, config), batches) == expected
    # the comparison means something: ops were recorded, and on TPC-C
    # some lanes rolled back
    assert any(raw for raw, *_ in expected[0])
    if workload == "tpcc-full-mix":
        statuses = {status for batch in expected for _, status, *_ in batch}
        assert TxnStatus.LOGIC_ABORTED in statuses


def test_framed_ops_on_every_execution_route():
    """Twin lanes, ``fall_back`` lanes, twin-less groups and logic
    aborts in one batch."""
    specs = mixed_bank_specs()
    batches = [specs, specs[::-1]]
    db, registry = mixed_bank_registry()
    expected = _observe(
        ReferenceEngine(db, registry, LTPGConfig(batch_size=256)), batches
    )
    db, registry = mixed_bank_registry()
    # the default config: twin-less procedures ride along on the scalar
    # fallback without anyone asking for it
    framed = _observe(
        LTPGEngine(db, registry, LTPGConfig(batch_size=256)), batches
    )
    assert framed == expected
    by_proc: dict[str, set] = {}
    for (name, _), (raw, status, reason, _) in zip(specs, expected[0]):
        by_proc.setdefault(name, set()).add(status)
        if name == "bad":
            assert raw and reason == "logic"  # a rolled-back lane keeps its ops
    assert by_proc["bad"] == {TxnStatus.LOGIC_ABORTED}
    assert set(by_proc) == {"transfer", "deposit", "audit", "open_account", "bad"}


def test_lane_major_ops_out_of_an_emission_order_frame():
    """The frame holds the batch's ops as emitted — one twin chunk
    after another, so lanes interleave — and a transaction's ``ops``,
    cut from the lane-major layout whichever lane is read first, is
    what the oracle records: on twin lanes, ``fall_back`` lanes, logic
    aborts and a twin-less group alike."""
    specs = mixed_bank_specs()
    batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
    copies = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
    db, registry = mixed_bank_registry()
    LTPGEngine(db, registry, LTPGConfig(batch_size=256)).run_batch(batch)
    db, registry = mixed_bank_registry()
    ReferenceEngine(db, registry, LTPGConfig(batch_size=256)).run_batch(copies)

    frame = batch[0]._frame
    assert (np.diff(frame.txn) < 0).any()  # not already lane-major
    assert frame._matrix is None
    for txn, copy in zip(batch[::-1], copies[::-1]):  # last lane first
        assert txn.ops.raw == copy.ops.raw
        assert (txn.status, txn.abort_reason) == (copy.status, copy.abort_reason)
    statuses = {t.procedure_name: t.status for t in copies}
    assert statuses["bad"] is TxnStatus.LOGIC_ABORTED
    assert {"transfer", "deposit", "audit"} <= set(statuses)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_default_run_batch_leaves_the_lane_major_layout_unbuilt(workload):
    """Nothing in a default batch reads ops lane-major: the collector,
    conflict detection, write-back, assembly and tracing all take the
    frame's columns as emitted, so the sort stays unmade until a
    transaction's ``ops`` is read."""
    db, registry, gen, marks = WORKLOADS[workload]()
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=256, trace=True, **marks))
    scheduler = BatchScheduler(256)
    frames = []
    for result in drive(engine, scheduler, gen.make_batch, max_batches=3):
        txns = result.committed + result.aborted + result.logic_aborted
        frames.append(txns[0]._frame)
    assert len({id(f) for f in frames}) == 3
    assert all(f._matrix is None for f in frames)
    txns[0].ops  # ...and the first read builds it
    assert frames[-1]._matrix is not None


@pytest.mark.parametrize("workload", ["tpcc-full-mix", "smallbank"])
def test_naive_warp_plan_matches_the_object_planner(workload):
    """Under ``adaptive_warps=False`` the engine plans warps over the
    frame's lane-major layout; its divergence count is what
    :func:`~repro.txn.decompose.plan_naive` finds walking the oracle's
    per-transaction op lists of the same batch."""
    build = WORKLOADS[workload]
    _, _, gen, _ = build()
    specs = [(t.procedure_name, t.params) for t in gen.make_batch(256)]
    db, registry, _, marks = build()
    config = LTPGConfig(batch_size=256, adaptive_warps=False, **marks)
    batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
    result = LTPGEngine(db, registry, config).run_batch(batch)
    db, registry, _, marks = build()
    copies = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
    ReferenceEngine(db, registry, LTPGConfig(batch_size=256, **marks)).run_batch(
        copies
    )
    expected = plan_naive(copies).divergent_branches
    assert expected > 0
    assert result.stats.divergent_branches == expected


def test_a_batch_that_raises_leaves_empty_ops():
    db, registry = mixed_bank_registry()
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=8, batched_exec=True))
    batch = [
        Transaction("deposit", (1, 5), tid=0),
        Transaction("no_such_proc", (1,), tid=1),
    ]
    with pytest.raises(TransactionError, match="no_such_proc"):
        engine.run_batch(batch)
    assert [len(t.ops) for t in batch] == [0, 0]


def test_default_config_attaches_a_frame_direct_and_served(monkeypatch):
    """One frame per batch on every path: every lane of a batch points
    into one ``OpFrame``, whether a caller or the serve layer cut the
    batch and whether twins (``LTPGConfig()``) or scalar procedures
    (``batched_exec=False``) ran its lanes."""

    def run(config):
        setup = build_workload("smallbank", seed=77)
        engine = LTPGEngine(setup.database, setup.registry, config)
        batch = setup.generator.make_batch(64)
        assign_tids(batch, 0)
        engine.run_batch(batch)
        return {id(t._frame) for t in batch}, {type(t._frame) for t in batch}

    for config in (LTPGConfig(), LTPGConfig(batched_exec=False)):
        frames, types = run(config)
        assert len(frames) == 1 and types == {OpFrame}

    setup = build_workload("smallbank", seed=77)
    engine = LTPGEngine(setup.database, setup.registry, LTPGConfig(batch_size=64))
    served: list[set] = []
    run_batch = engine.run_batch

    def spy(batch):
        result = run_batch(batch)
        served.append({type(request._frame) for request in batch})
        return result

    monkeypatch.setattr(engine, "run_batch", spy)

    # hybrid: the retry tail cuts after a deadline
    policy = make_policy("hybrid", 64, max_wait_ns=2_000)

    async def main():
        async with Orchestrator(engine, policy=policy) as orch:
            for future in [
                orch.post(t.procedure_name, t.params)
                for t in setup.generator.make_batch(64)
            ]:
                await future

    run_simulation(main())
    assert served and all(types == {OpFrame} for types in served)


# -- (b) lifetime --------------------------------------------------------

def test_ops_outlive_later_batches_and_retries_show_the_latest_attempt():
    setup = build_workload("smallbank", seed=77)
    engine = setup.engine(batch_size=256, batched_exec=True)
    # the same batches, one transaction at a time, on a twin database:
    # what each attempt's ops must read as
    twin = build_workload("smallbank", seed=77)
    reference = ReferenceEngine(
        twin.database, twin.registry, LTPGConfig(batch_size=256)
    )
    scheduler = BatchScheduler(256)
    batches, expected = [], []
    for _ in range(4):
        scheduler.admit(
            setup.generator.make_batch(256 - scheduler.eligible_backlog)
        )
        batch = scheduler.next_batch()
        scheduler.requeue_aborted(engine.run_batch(batch).aborted)
        copies = [
            Transaction(t.procedure_name, t.params, tid=t.tid) for t in batch
        ]
        reference.run_batch(copies)
        batches.append(batch)
        expected.append([c.ops.raw for c in copies])

    last_seen = {id(t): k for k, batch in enumerate(batches) for t in batch}
    appearances: dict[int, int] = {}
    for batch in batches:
        for txn in batch:
            appearances[id(txn)] = appearances.get(id(txn), 0) + 1
    read_late = retried = 0
    for k, batch in enumerate(batches):
        for lane, txn in enumerate(batch):
            if last_seen[id(txn)] != k:
                continue  # ran again later: shows that attempt
            # first read of these ops, up to three batches after they ran
            assert txn.ops.raw == expected[k][lane]
            assert txn.ops is txn.ops
            assert txn.attempts == appearances[id(txn)]
            read_late += k < len(batches) - 1
            retried += txn.attempts > 1
    assert read_late and retried


# -- (c) tracked objects per batch: O(groups), not O(lanes) --------------

LANES = 4096


def _census() -> tuple[int, int]:
    """(GC-tracked objects, live per-transaction op buffers)."""
    gc.collect()
    objects = gc.get_objects()
    return len(objects), sum(type(o) is OpColumns for o in objects)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
def test_run_batch_allocates_tracked_objects_per_group_not_per_lane(trace):
    setup = build_workload("smallbank", seed=77)
    engine = setup.engine(
        batch_size=LANES, batched_exec=True, trace=trace
    )
    scheduler = BatchScheduler(LANES)
    # lazy caches, first-use registries
    for _ in drive(engine, scheduler, setup.generator.make_batch, max_batches=2):
        pass
    scheduler.admit(setup.generator.make_batch(LANES - scheduler.eligible_backlog))
    batch = scheduler.next_batch()
    objects0, buffers0 = _census()
    result = engine.run_batch(batch)
    objects1, buffers1 = _census()
    assert result.stats.num_txns == LANES
    # SmallBank's six twins never fall back: no lane gets a buffer of
    # its own (tracing used to take len(txn.ops) of every lane)
    assert buffers1 - buffers0 <= 0
    # What the batch leaves behind — three result lists, a log entry,
    # the frame, per-group arrays — is tens of objects, not one per lane.
    assert objects1 - objects0 < LANES // 8
    # ...until somebody asks: then exactly the lanes asked for
    for txn in batch[:10]:
        assert len(txn.ops) > 0
    assert _census()[1] - buffers1 == 10


# -- (d) layout: no attribute appears after __init__ ---------------------

def test_transaction_attributes_all_exist_from_init():
    db, registry = mixed_bank_registry()
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=256, batched_exec=True))
    batch = [
        Transaction(n, p, tid=i) for i, (n, p) in enumerate(mixed_bank_specs())
    ]
    before = [set(vars(t)) for t in batch]
    engine.run_batch(batch)
    for txn in batch:
        txn.ops  # materialising must not add one either
    assert [set(vars(t)) for t in batch] == before

    plain = LTPGEngine(
        *mixed_bank_registry(), LTPGConfig(batch_size=256, batched_exec=False)
    )
    batch = [
        Transaction(n, p, tid=i) for i, (n, p) in enumerate(mixed_bank_specs())
    ]
    plain.run_batch(batch)
    assert [set(vars(t)) for t in batch] == before


def test_serve_request_attributes_all_exist_from_init(monkeypatch):
    setup = build_workload("smallbank", seed=77)
    engine = setup.engine(batch_size=64, batched_exec=True)
    seen: list = []
    run_batch = engine.run_batch

    def spy(batch):
        seen.append([(request, set(vars(request))) for request in batch])
        return run_batch(batch)

    monkeypatch.setattr(engine, "run_batch", spy)

    # hybrid: a full batch cuts at once, the retry tail after a deadline
    policy = make_policy("hybrid", 64, max_wait_ns=2_000)

    async def main():
        async with Orchestrator(engine, policy=policy) as orch:
            futures = [
                orch.post(t.procedure_name, t.params)
                for t in setup.generator.make_batch(128)
            ]
            for future in futures:
                await future

    run_simulation(main())
    assert seen
    for batch in seen:
        for request, before in batch:
            assert set(vars(request)) == before
