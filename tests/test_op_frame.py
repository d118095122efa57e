"""The batch-wide op frame (``OpFrame``) and the lazy ``Transaction.ops``.

The execute phase hands the collector one lane-major op matrix per
batch, whatever ran each lane's procedure; a transaction's ``ops`` is
cut out of it on first read.  Four guards:

* what a transaction shows — ``ops.raw``, status, abort reason — is what
  the test oracle's per-transaction loop records, on every execution
  route (twin lanes, ``fall_back`` lanes, logic aborts, twin-less
  groups): conformance-lattice cells;
* a frame is never written after its batch: ops read batches later are
  the ops of that attempt, and a retried transaction shows its latest,
  also after a batch it was in is refused;
* ``run_batch`` allocates garbage-collector-tracked objects per
  *group*, not per lane — a count, because a timer cannot tell a
  per-lane object creeping back from a noisy host — tracing included;
* every attribute of a ``Transaction`` / serve ``_Request`` exists from
  ``__init__`` on: one first stored later would move every instance off
  CPython's compact attribute layout.
"""

from __future__ import annotations

import asyncio
import gc

import numpy as np
import pytest

from helpers import (
    SOURCES,
    check_cell,
    mixed_bank_registry,
    mixed_bank_specs,
    oracle_cell,
)
from reference_engine import ReferenceEngine
from repro.analysis.workload import build_workload
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import TransactionError
from repro.serve.admission import AdmissionController, TenantQuota
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
from repro.txn.operations import OpFrame

pytestmark = pytest.mark.batched

#: the lattice sources these tests run, by the workload ids they carry
WORKLOADS = pytest.mark.parametrize(
    "source", ["tpcc-full-mix", "ycsb-a-z12", "ycsb-e", "smallbank-500"],
    ids=["tpcc-full-mix", "ycsb-a", "ycsb-e", "smallbank"],
)


# -- (a) the frame shows what the per-transaction oracle records --------

@WORKLOADS
def test_framed_ops_equal_the_columnar_path(source):
    source += "@256x3"
    for config in ("default", "twin-less"):
        check_cell(source, config)
    # the comparison means something: ops were recorded, and on TPC-C
    # some lanes rolled back
    batches = oracle_cell(source, "default", "direct", ())["batches"]
    assert any(raw for *_, raw in batches[0][1])
    statuses = {status for _, lanes, *_ in batches for _, status, *_ in lanes}
    assert "tpcc" not in source or TxnStatus.LOGIC_ABORTED in statuses


def test_framed_ops_on_every_execution_route():
    """Twin lanes, ``fall_back`` lanes, twin-less groups and logic
    aborts in one batch, under the default config: twin-less procedures
    ride along on the scalar fallback without anyone asking for it."""
    check_cell("mixed-bank")


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


@WORKLOADS
def test_default_run_batch_leaves_the_lane_major_layout_unbuilt(source):
    """Nothing in a default batch reads ops lane-major: the collector,
    conflict detection, write-back, assembly and tracing all take the
    frame's columns as emitted, so the sort stays unmade until a
    transaction's ``ops`` is read."""
    db, registry, marks, gen = SOURCES[source].build()
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


@pytest.mark.parametrize(
    "source", ["tpcc-full-mix", "smallbank-500"], ids=["tpcc-full-mix", "smallbank"]
)
def test_naive_warp_plan_matches_the_object_planner(source):
    """Under ``adaptive_warps=False`` the engine plans warps over the
    frame's lane-major layout; its divergence count (a ``BatchStats``
    field) is what the oracle's object planner finds walking the
    per-transaction op lists of the same batch."""
    source += "@256x1"
    check_cell(source, "no-opts")
    ((stats, *_),) = oracle_cell(source, "no-opts", "direct", ())["batches"]
    assert stats["divergent_branches"] > 0


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


def _two_batches():
    """A SmallBank engine after two scheduled batches, and the second
    batch, whose retried lanes' first-attempt ops were read."""
    setup = build_workload("smallbank", seed=77)
    engine = setup.engine(batch_size=256, batched_exec=True)
    scheduler = BatchScheduler(256)
    for first in (True, False):
        scheduler.admit(
            setup.generator.make_batch(256 - scheduler.eligible_backlog)
        )
        batch = scheduler.next_batch()
        scheduler.requeue_aborted(engine.run_batch(batch).aborted)
        if first:
            for txn in batch:
                txn.ops  # the first attempt's ops, read
    return engine, batch


def _assert_refused(engine, batch, bad: Transaction, match: str) -> None:
    """``bad`` at the end of ``batch`` refuses it: nothing is counted or
    logged, and every lane keeps its attempts and the ops of its latest
    attempt, as on a twin that never saw the refusal."""
    _, twin = _two_batches()
    assert any(txn.attempts == 2 for txn in batch)
    before = (engine._batch_counter, len(engine.batch_log), engine.database.state_digest())
    with pytest.raises(TransactionError, match=match):
        engine.run_batch(batch + [bad])
    assert before == (
        engine._batch_counter, len(engine.batch_log), engine.database.state_digest()
    )
    assert [t.attempts for t in batch] == [t.attempts for t in twin]
    assert [t.ops.raw for t in batch] == [t.ops.raw for t in twin]


def test_a_refused_batch_leaves_each_lane_as_it_was():
    """A batch with a lane that has no TID is refused.  Every lane before
    that one keeps its attempts and the ops of its latest attempt, not
    the ops that were read after an earlier attempt."""
    engine, batch = _two_batches()
    _assert_refused(engine, batch, Transaction("balance", (1,)), "without a TID")


#: Params a client may send that the int64 command block cannot hold;
#: each is a function of account 3's savings.
_NOT_INT64 = {
    "fraction": lambda savings: (3, -(savings + 0.5)),
    "str-amount": lambda savings: (3, "3"),
    "above-int64": lambda savings: (3, 2**63),
    "nested": lambda savings: (3, (1, 2)),
}


@pytest.mark.parametrize("kind", list(_NOT_INT64))
def test_params_that_are_not_int64_refuse_the_batch(kind):
    """A lane whose params are not ints in int64 range refuses the
    batch like a lane without a TID.  (A fraction used to be truncated
    by the twins' int64 flatten — the twin committed ``-10000`` where
    the scalar procedure and a replay logic-abort ``-10000.5``.)"""
    engine, batch = _two_batches()
    savings = engine.database.table("smallbank").read(3, "savings")
    bad = Transaction("transact_savings", _NOT_INT64[kind](savings), tid=10**9)
    _assert_refused(engine, batch, bad, "int64")


@pytest.mark.parametrize("kind", list(_NOT_INT64))
def test_a_served_request_that_is_not_int64_is_refused_at_post(kind):
    """Served, the refusal comes at ``post``, before admission: the bad
    request spends no tenant token and queues nothing, and the requests
    posted beside it form one batch that commits."""
    setup = build_workload("smallbank", seed=77)
    engine = setup.engine(batch_size=4, batched_exec=True)
    bad = _NOT_INT64[kind](10_000)
    admission = AdmissionController(default_quota=TenantQuota(rate_per_s=1, burst=4))

    async def main():
        policy = make_policy("size", 4)
        async with Orchestrator(engine, policy=policy, admission=admission) as orch:
            tickets = [orch.post("balance", (k,)) for k in range(3)]
            with pytest.raises(TransactionError, match="int64"):
                orch.post("transact_savings", bad)
            assert orch.queue_depth == 3
            assert orch.metrics.counter("serve.submitted").value == 3
            tickets.append(orch.post("balance", (3,)))  # the burst's last token
            return await asyncio.gather(*tickets)

    responses = run_simulation(main())
    assert all(r.committed for r in responses)
    assert [len(e.tids) for e in engine.batch_log.batches()] == [4]


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


# -- (d) layout: a fixed set of slots, all stored by __init__ -----------

def _assert_fixed_layout(obj) -> None:
    """No ``__dict__``; every slot of the class (and its bases) holds a
    value from construction on; an attribute nobody declared cannot be
    stored."""
    assert not hasattr(obj, "__dict__")
    slots = [
        name
        for cls in type(obj).__mro__
        for name in cls.__dict__.get("__slots__", ())
        if name != "__weakref__"
    ]
    assert slots
    for name in slots:
        getattr(obj, name)  # an unset slot raises AttributeError
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_transaction_attributes_all_exist_from_init():
    db, registry = mixed_bank_registry()
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=256, batched_exec=True))
    batch = [
        Transaction(n, p, tid=i) for i, (n, p) in enumerate(mixed_bank_specs())
    ]
    for txn in batch:
        _assert_fixed_layout(txn)
    engine.run_batch(batch)
    for txn in batch:
        txn.ops  # materialising must not add one either
        _assert_fixed_layout(txn)

    plain = LTPGEngine(
        *mixed_bank_registry(), LTPGConfig(batch_size=256, batched_exec=False)
    )
    batch = [
        Transaction(n, p, tid=i) for i, (n, p) in enumerate(mixed_bank_specs())
    ]
    plain.run_batch(batch)
    for txn in batch:
        _assert_fixed_layout(txn)


def test_serve_request_attributes_all_exist_from_init(monkeypatch):
    setup = build_workload("smallbank", seed=77)
    engine = setup.engine(batch_size=64, batched_exec=True)
    seen: list = []
    run_batch = engine.run_batch

    def spy(batch):
        for request in batch:
            _assert_fixed_layout(request)
        seen.append(batch)
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
        for request in batch:
            _assert_fixed_layout(request)
