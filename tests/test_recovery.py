"""Snapshot + log-replay recovery on the deterministic engine."""

from __future__ import annotations

from itertools import chain, count, islice

import numpy as np
import pytest

from helpers import BoundaryObserver, build_bank, txn
from repro.analysis.workload import WORKLOAD_NAMES, build_workload
from repro.core import NO_TID, LTPGConfig, LTPGEngine
from repro.errors import StorageError, TransactionError
from repro.storage import BatchLog, LogRecord, Snapshot
from repro.storage.recovery import recover, transactions_from_record
from repro.trace import validate_nesting
from repro.txn import (
    BatchScheduler,
    ProcedureRegistry,
    Transaction,
    assign_tids,
    drive,
)
from repro.workloads.smallbank import build_smallbank


def contended():
    """``fresh(n)`` for :func:`drive`: contended transfers + deposits."""
    rounds = (
        [txn("transfer", (i + j) % 8, (i + j + 1) % 8, 1) for j in range(6)]
        + [txn("deposit", j % 4, 5) for j in range(6)]
        for i in count()
    )
    stream = chain.from_iterable(rounds)
    return lambda n: list(islice(stream, n))


class TestRecovery:
    def make_engine(self, db):
        return LTPGEngine(db, self.registry, LTPGConfig(batch_size=16))

    def crash_and_recover(self, snapshot_at: int, total_batches: int):
        db, self.registry = build_bank(accounts=16)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=16))
        scheduler = BatchScheduler(16)

        snapshot = Snapshot.capture(db, batch_index=0)
        batches = drive(engine, scheduler, contended(), max_batches=total_batches)
        for ran, _result in enumerate(batches, start=1):
            if ran == snapshot_at:
                snapshot = Snapshot.capture(db, batch_index=ran)
        pre_crash_digest = db.state_digest()

        recovered_engine, report = recover(
            snapshot, engine.batch_log, self.make_engine
        )
        return pre_crash_digest, recovered_engine, report

    def test_recover_from_initial_snapshot(self):
        digest, engine, report = self.crash_and_recover(snapshot_at=0, total_batches=5)
        assert report.final_digest == digest
        assert report.batches_replayed == 5

    def test_recover_from_mid_run_snapshot(self):
        digest, engine, report = self.crash_and_recover(snapshot_at=3, total_batches=6)
        assert report.final_digest == digest
        assert report.batches_replayed == 3
        assert report.snapshot_batch == 3

    def test_recover_validates_commit_sets(self):
        db, self.registry = build_bank(accounts=8)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=8))
        snapshot = Snapshot.capture(db, batch_index=0)
        batch = [txn("transfer", 0, 1, 5)]
        batch[0].tid = 0
        engine.run_batch(batch)
        # Corrupt the log's recorded outcome: replay must detect it.
        engine.batch_log.batches()[0].committed_tids = np.array([999])
        with pytest.raises(StorageError):
            recover(snapshot, engine.batch_log, self.make_engine)

    def test_recover_checks_a_batch_that_committed_nothing(self):
        """An empty recorded outcome is an outcome: a replay that
        commits where the original run did not must not pass."""
        db, self.registry = build_bank(accounts=8)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=8))
        snapshot = Snapshot.capture(db, batch_index=0)
        batch = [txn("bad", 1), txn("bad", 2)]
        batch[0].tid, batch[1].tid = 0, 1
        result = engine.run_batch(batch)
        assert result.committed == [] and len(result.logic_aborted) == 2
        entry = engine.batch_log.batches()[0]
        assert entry.committed_tids.size == 0 and entry.aborted_tids.size == 0

        # faithful replay: nothing commits, recovery agrees
        _, report = recover(snapshot, engine.batch_log, self.make_engine)
        assert report.final_digest == db.state_digest()

        # a replay engine whose "bad" no longer rolls back commits both
        divergent = ProcedureRegistry()

        @divergent.register("bad")
        def bad(ctx, a):
            ctx.write("accounts", a, "flags", 1)

        with pytest.raises(StorageError, match="non-deterministic replay"):
            recover(
                snapshot,
                engine.batch_log,
                lambda database: LTPGEngine(
                    database, divergent, LTPGConfig(batch_size=8)
                ),
            )

    def test_recover_replays_a_batch_whose_outcome_was_never_logged(self):
        """A crash between append_batch and record_outcome leaves the
        outcome ``None``: the batch replays, with nothing to compare."""
        db, self.registry = build_bank(accounts=8)
        snapshot = Snapshot.capture(db, batch_index=0)
        log = BatchLog()
        batch = [txn("deposit", 1, 5)]
        batch[0].tid = 0
        entry = log.append_batch(0, batch)
        assert entry.committed_tids is None and entry.aborted_tids is None
        engine, report = recover(snapshot, log, self.make_engine)
        assert report.transactions_replayed == 1
        assert engine.database.table("accounts").read(1, "balance") == 1005

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
    @pytest.mark.parametrize("fault", ["unknown-procedure", "delayed-column-write"])
    def test_recover_skips_a_batch_the_engine_raised_on(self, fault, batched):
        """A batch whose execute phase raises is in the log but has no
        outcome and changed nothing: recovery must not replay it (it
        would only raise again), while a ``None`` outcome — the process
        died — still replays."""
        db, self.registry = build_bank(accounts=16)
        config = LTPGConfig(
            batch_size=16,
            batched_exec=batched,
            delayed_columns=frozenset({("accounts", "balance")}),
        )
        engine = LTPGEngine(db, self.registry, config)
        scheduler = BatchScheduler(16)
        snapshot = Snapshot.capture(db, batch_index=0)

        def good_batch(i):
            scheduler.admit([txn("deposit", (i + j) % 8, 5) for j in range(10)])
            return scheduler.next_batch()

        engine.run_batch(good_batch(0))
        before_fault = db.state_digest()
        bad = (
            txn("no_such_proc", 1)
            if fault == "unknown-procedure"
            # a delayed column may only be ADDed to within a batch
            else txn("transfer", 1, 2, 5)
        )
        scheduler.admit([txn("deposit", 3, 1), bad, txn("deposit", 4, 1)])
        with pytest.raises(TransactionError):
            engine.run_batch(scheduler.next_batch())
        assert db.state_digest() == before_fault
        engine.run_batch(good_batch(2))

        entries = engine.batch_log.batches()
        assert [e.failed for e in entries] == [False, True, False]
        assert entries[1].committed_tids is None
        assert entries[0].committed_tids.size and entries[2].committed_tids.size

        recovered, report = recover(
            snapshot, engine.batch_log, lambda d: LTPGEngine(d, self.registry, config)
        )
        assert report.batches_failed == 1
        assert report.batches_replayed == 2
        assert report.final_digest == db.state_digest()

    def test_recover_after_a_served_batch_failed(self):
        """The serve layer fails the batch's futures and keeps serving
        (``Orchestrator._fail_batch``); the log it leaves recovers to
        the live state."""
        import asyncio

        from repro.serve import BatchExecutionError, Orchestrator, SizePolicy
        from repro.serve.clock import run_simulation

        db, self.registry = build_bank(accounts=16)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=4))
        snapshot = Snapshot.capture(db, batch_index=0)

        async def main():
            async with Orchestrator(engine, policy=SizePolicy(4)) as orch:
                futures = []
                for names in (
                    ["deposit"] * 4,
                    ["deposit", "no_such_proc", "deposit", "deposit"],
                    ["deposit"] * 4,
                ):
                    futures += [
                        orch.post(name, (len(futures) + j, 5))
                        for j, name in enumerate(names)
                    ]
                    await asyncio.sleep(0)
                return await asyncio.gather(*futures, return_exceptions=True), orch

        results, orch = run_simulation(main())
        assert all(r.committed for r in results[:4] + results[8:])
        assert all(isinstance(r, BatchExecutionError) for r in results[4:8])
        assert orch.metrics.counter("serve.batch_failures").value == 1

        _, report = recover(snapshot, engine.batch_log, self.make_engine)
        assert (report.batches_replayed, report.batches_failed) == (2, 1)
        assert report.final_digest == db.state_digest()

    def test_transactions_from_record_preserve_tids(self):
        db, self.registry = build_bank(accounts=8)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=8))
        batch = [txn("deposit", 1, 2), txn("deposit", 2, 3)]
        batch[0].tid, batch[1].tid = 7, 9
        engine.run_batch(batch)
        rebuilt = transactions_from_record(engine.batch_log.batches()[0])
        assert [t.tid for t in rebuilt] == [7, 9]
        assert [t.params for t in rebuilt] == [(1, 2), (2, 3)]

    def test_recovered_engine_continues_processing(self):
        digest, engine, report = self.crash_and_recover(snapshot_at=2, total_batches=4)
        follow_up = [txn("deposit", 0, 100)]
        follow_up[0].tid = 10_000
        result = engine.run_batch(follow_up)
        assert result.stats.committed == 1


def _refused(engine, batch, database):
    """``run_batch(batch)`` raises on the lane without a TID and leaves
    no trace: the counter, the log, the conflict log's minima and the
    state are what they were."""
    before = (
        engine._batch_counter, len(engine.batch_log), database.state_digest()
    )
    with pytest.raises(TransactionError, match="without a TID"):
        engine.run_batch(batch)
    assert before == (
        engine._batch_counter, len(engine.batch_log), database.state_digest()
    )
    log = engine.conflict_log
    keys = np.arange(log._base[-1], dtype=np.int64)
    assert (log.min_read(keys) == NO_TID).all() and (log.min_write(keys) == NO_TID).all()


@pytest.mark.parametrize(
    "name, overrides",
    [
        pytest.param(name, overrides, id=name + suffix)
        for suffix, overrides in (
            ("", {}),
            ("-mockgpu", dict(array_backend="mockgpu")),
        )
        for name in WORKLOAD_NAMES
    ],
)
def test_recovery_digest_matches_on_every_workload(name, overrides):
    """Snapshot + decoded log payloads reproduce the crashed state on
    TPC-C, YCSB-A and SmallBank (retries carried across batches).
    The log holds each batch in the lane order it ran, which is the
    order it was admitted in, so the replay runs the same lanes.

    Between the scheduled batches the engine is handed what it must
    refuse — lanes straight from the generator, and one such lane among
    63 that carry TIDs.  The replay is the twin that never saw them: it
    commits the same TIDs per batch (``recover`` checks) and reaches
    the same digest only if a refused batch changed nothing."""
    setup = build_workload(name, seed=5)
    engine = setup.engine(batch_size=128, **overrides)
    config = engine.config
    scheduler = BatchScheduler(128)
    snapshot = Snapshot.capture(setup.database, batch_index=0)
    admitted = []
    for _ in range(3):
        scheduler.admit(
            setup.generator.make_batch(128 - scheduler.eligible_backlog)
        )
        admitted.append(scheduler.next_batch())
        result = engine.run_batch(admitted[-1])
        scheduler.requeue_aborted(result.aborted)
        _refused(engine, setup.generator.make_batch(128), setup.database)
        mixed = setup.generator.make_batch(64)
        assign_tids(mixed[:40] + mixed[41:], 10**9)
        _refused(engine, mixed, setup.database)
    recovered, report = recover(
        snapshot,
        engine.batch_log,
        lambda database: LTPGEngine(database, setup.registry, config),
    )
    assert report.batches_replayed == 3
    assert report.final_digest == setup.database.state_digest()
    logged = [
        [(r.tid, r.procedure, r.params) for r in entry.records]
        for entry in engine.batch_log.batches()
    ]
    assert logged == [
        [(r.tid, r.procedure, r.params) for r in entry.records]
        for entry in recovered.batch_log.batches()
    ]
    for batch, entry in zip(admitted, engine.batch_log.batches()):
        lanes = transactions_from_record(entry)
        assert [t.tid for t in lanes] == [t.tid for t in batch]


# -- crash it at every stage boundary -------------------------------------

#: (observer call, stage) -> has the snapshot been written by then?
BOUNDARIES = {
    "leaving-execute": (("stage_leaving", "execute"), False),
    "entering-conflict": (("stage_entered", "conflict"), False),
    "leaving-conflict": (("stage_leaving", "conflict"), False),
    "entering-writeback": (("stage_entered", "writeback"), False),
    "leaving-writeback": (("stage_leaving", "writeback"), True),
    "after-assemble": (("stage_leaving", "assemble"), True),
    "before-log-outcome": (("stage_entered", "log"), True),
}


def _smallbank_lattice_run(batches, crash_at=None, trace=False):
    """Run ``batches`` (indices into three fixed 64-lane SmallBank
    batches) on a fresh engine; ``crash_at`` injects a fault at that
    boundary of the *second* batch run.  Returns the engine, a snapshot
    taken before the second batch, and each surviving batch's
    (statuses, abort reasons, digest after it)."""
    db, registry, gen = build_smallbank(num_accounts=200, seed=3)
    fixed, next_tid = [], 0
    for _ in range(3):
        fixed.append(gen.make_batch(64))
        next_tid = assign_tids(fixed[-1], next_tid)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=64, trace=trace))
    out, before_second = [], None
    for position, index in enumerate(batches):
        batch = fixed[index]
        if position == 1:
            before_second = Snapshot.capture(db, batch_index=1)
            if crash_at is not None:
                engine.observers += (BoundaryObserver(at=crash_at),)
                with pytest.raises(RuntimeError, match="injected"):
                    engine.run_batch(batch)
                out.append((None, None, db.state_digest()))
                continue
        engine.run_batch(batch)
        out.append(
            (
                [t.status for t in batch],
                [t.abort_reason for t in batch],
                db.state_digest(),
            )
        )
    return engine, before_second, out


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_engine_survives_a_failure_at_every_stage_boundary(boundary, trace):
    """An observer raises at each stage boundary of the middle batch of
    three and the engine stays in service.

    Up to and including *entering* write-back nothing was installed:
    the entry is marked failed, the snapshot is untouched, the next
    batch is judged as if the failed one never ran (its registrations
    must not survive in the conflict log), and recovery skips it.  From
    *leaving* write-back on the batch is fully installed and only its
    outcome is missing: the next batch equals a never-crashed run's and
    recovery replays the entry.  Either way no trace span stays open.

    A failure *inside* write-back — the snapshot partly installed — is
    the hole ROADMAP item 6(a) still has open; nothing here closes it.
    """
    crash_at, installed = BOUNDARIES[boundary]
    engine, before_crash, (first, crashed, after) = _smallbank_lattice_run(
        [0, 1, 2], crash_at=crash_at, trace=trace
    )
    entries = engine.batch_log.batches()
    assert [e.committed_tids is None for e in entries] == [False, True, False]
    assert entries[1].failed is not installed
    # the twin the survivor must match: one that never saw the failed
    # batch, or one that ran it to the end
    _, _, twin = _smallbank_lattice_run([0, 1, 2] if installed else [0, 2])
    assert crashed[2] == (twin[1][2] if installed else first[2])
    assert after == twin[-1]
    live = engine.database.state_digest()

    def fresh(database):
        return LTPGEngine(database, engine.procedures, LTPGConfig(batch_size=64))

    start = Snapshot.capture(build_smallbank(num_accounts=200, seed=3)[0], 0)
    _, report = recover(start, engine.batch_log, fresh)
    assert report.final_digest == live
    assert (report.batches_replayed, report.batches_failed) == (
        (3, 0) if installed else (2, 1)
    )
    _, report = recover(before_crash, engine.batch_log, fresh)
    assert report.final_digest == live
    if trace:
        tracer = engine.tracer
        assert all(
            tracer.open_depth(track) == 0
            for track in (*tracer.tracks(), engine.compute_stream)
        )
        assert validate_nesting(tracer) == []


class TestRecoveryProperty:
    """Random workloads: recovery always reproduces the crashed state."""

    def test_random_histories_recover_exactly(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def histories(draw):
            batches = draw(st.integers(1, 4))
            snapshot_at = draw(st.integers(0, batches - 1))
            ops = [
                [
                    (
                        draw(st.sampled_from(["transfer", "deposit"])),
                        draw(st.integers(0, 7)),
                        draw(st.integers(0, 7)),
                        1 + draw(st.integers(0, 4)),
                    )
                    for _ in range(draw(st.integers(1, 8)))
                ]
                for _ in range(batches)
            ]
            return snapshot_at, ops

        @given(histories())
        @settings(max_examples=25, deadline=None)
        def check(history):
            snapshot_at, batch_specs = history
            db, registry = build_bank(accounts=8)
            config = LTPGConfig(batch_size=16)
            engine = LTPGEngine(db, registry, config)
            snapshot = Snapshot.capture(db, batch_index=0)
            tid = 0
            for i, specs in enumerate(batch_specs):
                if i == snapshot_at:
                    snapshot = Snapshot.capture(db, batch_index=i)
                batch = []
                for name, a, b, v in specs:
                    if name == "transfer":
                        batch.append(txn("transfer", a, (b + 1) % 8, v))
                    else:
                        batch.append(txn("deposit", a, v))
                for t in batch:
                    t.tid = tid
                    tid += 1
                engine.run_batch(batch)
            expected = db.state_digest()
            _, report = recover(
                snapshot,
                engine.batch_log,
                lambda database: LTPGEngine(database, registry, config),
            )
            assert report.final_digest == expected

        check()


# -- one mixed batch: what the log decodes to, what recovery reaches -----


MIXED_BATCH_DIGEST = "70833e79b273d1219a577f68892862c53b99df5d49582f7fd6c973fe968332b0"


def _mixed_tpcc_batch():
    """A TPC-C engine and one batch holding every params shape the
    shipped procedures take: NewOrder at every item count the generator
    draws, Payment, StockLevel, Delivery with and without order ids — and
    two twin-less procedures, one with no params and one with the int64
    extremes, a ``bool`` and an ``np.int64``."""
    import numpy as np

    from repro.workloads.tpcc import TpccMix, build_tpcc

    mix = TpccMix(neworder=0.5, payment=0.2, stocklevel=0.1, delivery=0.2)
    db, registry, generator = build_tpcc(2, num_items=2000, mix=mix, seed=3)

    @registry.register("ping")
    def ping(ctx):
        ctx.read("warehouse", 0, "w_tax")

    @registry.register("extremes")
    def extremes(ctx, hi, lo, flag, c_key):
        ctx.write("customer", c_key, "c_discount", (hi - lo) // 2**62 + flag)

    big = 2**63 - 1
    batch = [Transaction("delivery", (1, 4))] + generator.make_batch(120)
    batch += [
        Transaction("ping", ()),
        Transaction("extremes", (big, -big, True, np.int64(7))),
    ]
    counts = {len(t.params) // 2 - 2 for t in batch if t.procedure_name == "neworder"}
    assert counts == set(range(5, 16))
    assert {len(t.params) for t in batch if t.procedure_name == "delivery"} == {2, 4}
    assert {"payment", "stocklevel"} <= {t.procedure_name for t in batch}
    assign_tids(batch, 100)
    return db, registry, batch


def test_a_mixed_batch_decodes_and_recovers_as_pinned():
    db, registry, batch = _mixed_tpcc_batch()
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=len(batch)))
    snapshot = Snapshot.capture(db, batch_index=0)
    engine.run_batch(batch)
    (entry,) = engine.batch_log.batches()
    assert entry.records == [
        LogRecord(t.tid, t.procedure_name, tuple(t.params)) for t in batch
    ]
    _, report = recover(
        snapshot,
        engine.batch_log,
        lambda database: LTPGEngine(database, registry, engine.config),
    )
    assert report.final_digest == db.state_digest() == MIXED_BATCH_DIGEST
