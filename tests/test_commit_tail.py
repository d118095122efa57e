"""The columnar commit tail: lazy witness, one-block batch log,
per-batch serve bookkeeping.

Three guards on what runs after write-back:

* the serial-order witness is built from arrays the batch result holds
  on to, so it must not matter *when* it is asked for;
* the batch log stores one int64 command block per batch, so every
  row of int64 params must survive the round trip, and any other
  params must be refused;
* nothing retained per served batch — log entries, serve batch
  records, latency digests — may cost garbage-collector-tracked objects
  in proportion to the batch's lanes.  That one is a *count*: a timer
  cannot tell a per-transaction object creeping back from a noisy host.
  The latency digest's sample buffers hold no object per sample.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.workload import WORKLOAD_NAMES, build_workload
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import TransactionError
from repro.serve.clock import run_simulation
from repro.serve.orchestrator import Orchestrator
from repro.serve.policies import make_policy
from repro.storage import BatchLog, LogRecord
from repro.trace.metrics import LatencyDigest
from repro.txn import BatchScheduler, Transaction, drive

SEED = 77


# -- (a) the lazy witness is alias-safe ---------------------------------

def _run_batches(name: str, batches: int, eager: bool):
    """Serve ``batches`` batches (retries carried over); returns each
    batch's serial order — asked for at once (``eager``) or only after
    every later batch has run."""
    setup = build_workload(name, seed=SEED)
    config = LTPGConfig(
        batch_size=256,
        batched_exec=True,
        **setup.config_kwargs,
    )
    scheduler = BatchScheduler(256)
    results, orders = [], []
    with LTPGEngine(setup.database, setup.registry, config) as engine:
        for result in drive(
            engine, scheduler, setup.generator.make_batch, max_batches=batches
        ):
            results.append(result)
            if eager:
                orders.append(result.serial_order())
    if not eager:
        orders = [result.serial_order() for result in results]
    return orders, results


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_serial_order_does_not_depend_on_when_it_is_asked(name):
    eager, _ = _run_batches(name, batches=4, eager=True)
    late, results = _run_batches(name, batches=4, eager=False)
    assert late == eager
    for order, result in zip(late, results):
        assert sorted(order) == sorted(t.tid for t in result.committed)
        assert order, "every batch commits at least its lowest TID"
        # asking again is free and gives a fresh list
        again = result.serial_order()
        assert again == order and again is not order


# -- (b) log round trip ---------------------------------------------------

_ints = st.one_of(
    st.integers(-10, 10),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_params = st.lists(st.one_of(_ints, st.booleans()), max_size=12).map(tuple)
_rows = st.lists(
    st.tuples(_ints, st.text(min_size=1, max_size=8), _params),
    max_size=6,
)


@settings(deadline=None, max_examples=40)
@given(batches=st.lists(_rows, min_size=1, max_size=2))
def test_log_round_trips_every_row_shape(batches):
    log = BatchLog()
    for index, rows in enumerate(batches):
        txns = [Transaction(proc, params, tid=tid) for tid, proc, params in rows]
        entry = log.append_batch(index, txns)
        records = [LogRecord(tid, proc, params) for tid, proc, params in rows]
        assert entry.records == records
        assert entry.committed_tids is None and entry.aborted_tids is None
    assert [e.batch_index for e in log.batches()] == list(range(len(batches)))


@pytest.mark.parametrize(
    "params", [(1, "x"), (1, (2, 3)), (2**70,), (-(2**63) - 1,), (0.5,)],
    ids=["str", "nested", "above-int64", "below-int64", "float"],
)
def test_log_refuses_params_that_are_not_int64(params):
    log = BatchLog()
    with pytest.raises(TransactionError, match="int64"):
        log.append_batch(0, [Transaction("p", (1,), tid=0), Transaction("p", params, tid=1)])
    assert len(log) == 0


def test_log_payload_is_one_untracked_object_per_batch():
    log = BatchLog()
    txns = [Transaction("p", (i, -i, 2**40), tid=i) for i in range(500)]
    entry = log.append_batch(0, txns)
    for recorded in (False, True):
        if recorded:  # the outcome arrives in lane order, as TID arrays
            tids = np.array([t.tid for t in txns])[::-1]
            log.record_outcome(0, tids[::2], tids[1::2])
        held = [o for o in gc.get_referents(entry) if not isinstance(o, type)]
        assert not any(map(gc.is_tracked, held))
        assert not any(isinstance(obj, LogRecord) for obj in held)
    columns = (entry.tids, entry.lengths, entry.flat, entry.committed_tids, entry.aborted_tids)
    assert not any(c.flags.writeable for c in columns)
    assert entry.committed_tids.tolist() == list(range(1, 500, 2))
    assert entry.aborted_tids.tolist() == list(range(0, 500, 2))


# -- (c) retained tracked objects grow per batch, not per lane -----------

LANES = 256


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_served_batches_retain_tracked_objects_per_batch_not_per_lane():
    setup = build_workload("smallbank", seed=SEED)
    engine = setup.engine(batch_size=LANES, batched_exec=True)

    # hybrid: a full batch cuts at once, the retry tail after a deadline
    policy = make_policy("hybrid", LANES, max_wait_ns=2_000)

    async def main():
        async with Orchestrator(engine, policy=policy) as orch:

            async def serve(requests):
                futures = [
                    orch.post(t.procedure_name, t.params)
                    for t in setup.generator.make_batch(requests)
                ]
                for future in futures:
                    await future
                del futures, future
                assert orch.queue_depth == 0
                return len(orch.batch_records), _tracked_objects()

            await serve(2 * LANES)  # lazy caches, first-use registries
            before = await serve(2 * LANES)
            after = await serve(10 * LANES)
        return orch, before, after

    try:
        orch, (batches0, objects0), (batches1, objects1) = run_simulation(main())
    finally:
        engine.close()
    batches = batches1 - batches0
    assert batches >= 10
    assert len(engine.batch_log) == batches1
    assert len(orch.latency) == len(orch.queue_wait) == 14 * LANES
    per_batch = (objects1 - objects0) / batches
    # BatchStats with its counters, one log entry, one serve record: a
    # few dozen.  One object per lane would be LANES or more.
    assert per_batch < LANES / 4, f"{per_batch:.1f} tracked objects per batch"


def _list_digest_summary(values: list[int]) -> dict:
    """:meth:`LatencyDigest.summary` over a plain list: nearest rank."""
    ordered = sorted(values)

    def rank(p):
        return ordered[min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1)))]

    return {
        "count": len(values),
        "mean": round(sum(values) / len(values), 3),
        "p50": rank(50),
        "p95": rank(95),
        "p99": rank(99),
        "max": rank(100),
    }


@settings(deadline=None, max_examples=60)
@given(
    batches=st.lists(
        st.lists(st.integers(0, 2**62), min_size=1, max_size=40),
        min_size=1,
        max_size=5,
    )
)
def test_latency_digest_holds_no_object_per_sample(batches):
    """The served digest keeps every sample in two buffers whose
    garbage-collector traversal reaches no sample — it visits the
    buffer's type and nothing else (an ``array`` is itself tracked on
    CPython >= 3.10; a list's traversal visits every element) — and its
    percentiles stay the exact nearest-rank order statistics, however
    the samples arrive."""
    digest = LatencyDigest("serve.latency_ns")
    values: list[int] = []
    for first, *rest in batches:
        digest.observe(first)
        digest.extend(rest)
        values += [first, *rest]
        assert digest.summary() == _list_digest_summary(values)
    assert len(digest) == len(values)
    for buffer in (digest._values, digest._sorted):
        assert gc.get_referents(buffer) == [type(buffer)]
