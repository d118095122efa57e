"""Transaction layer: contexts, procedures, batching, decomposition."""

from __future__ import annotations

import pytest

from helpers import build_bank, txn
from repro.errors import (
    StorageError,
    TransactionAborted,
    TransactionError,
    WorkloadError,
)
from repro.txn import (
    BatchScheduler,
    BufferedContext,
    OpKind,
    ProcedureRegistry,
    Transaction,
    TxnStatus,
    apply_local_sets,
    assign_tids,
    plan_grouped,
    plan_naive,
)


class TestBufferedContext:
    def setup_method(self):
        self.db, self.registry = build_bank(accounts=8)

    def test_read_records_op(self):
        ctx = BufferedContext(self.db)
        value = ctx.read("accounts", 3, "balance")
        assert value == 1000
        assert ctx.ops[0].kind == OpKind.READ
        assert ctx.ops[0].row == 3

    def test_read_your_own_write(self):
        ctx = BufferedContext(self.db)
        ctx.write("accounts", 2, "balance", 55)
        assert ctx.read("accounts", 2, "balance") == 55
        # database untouched until apply
        assert self.db.table("accounts").read(2, "balance") == 1000

    def test_read_your_own_add(self):
        ctx = BufferedContext(self.db)
        ctx.add("accounts", 2, "balance", 7)
        ctx.add("accounts", 2, "balance", 3)
        assert ctx.read("accounts", 2, "balance") == 1010

    def test_write_overrides_pending_add(self):
        ctx = BufferedContext(self.db)
        ctx.add("accounts", 2, "balance", 7)
        ctx.write("accounts", 2, "balance", 1)
        assert ctx.read("accounts", 2, "balance") == 1

    def test_insert_visible_after_apply(self):
        ctx = BufferedContext(self.db)
        ctx.insert("accounts", 100, {"balance": 5})
        apply_local_sets(self.db, ctx.local)
        assert self.db.table("accounts").read(
            self.db.table("accounts").lookup(100), "balance"
        ) == 5

    def test_insert_existing_key_is_logic_abort(self):
        ctx = BufferedContext(self.db)
        with pytest.raises(TransactionAborted):
            ctx.insert("accounts", 3, {"balance": 5})

    def test_double_insert_same_key_rejected(self):
        ctx = BufferedContext(self.db)
        ctx.insert("accounts", 200, {})
        with pytest.raises(TransactionError):
            ctx.insert("accounts", 200, {})

    def test_unknown_column_read_is_a_storage_error(self):
        """A stored row and the transaction's own insert refuse an
        unknown column alike, as ``Table.column`` does."""
        ctx = BufferedContext(self.db)
        ctx.insert("accounts", 100, {"balance": 5})
        for key in (1, 100):
            with pytest.raises(StorageError):
                ctx.read("accounts", key, "nope")

    def test_own_insert_read_falls_back_to_the_column_default(self):
        ctx = BufferedContext(self.db)
        ctx.insert("accounts", 100, {"balance": 5})
        assert ctx.read("accounts", 100, "balance") == 5
        assert ctx.read("accounts", 100, "flags") == 0
        assert [op.key for op in ctx.ops[1:]] == [100, 100]

    def test_key_at(self):
        ctx = BufferedContext(self.db)
        assert ctx.key_at("accounts", 5) == 5
        assert ctx.ops[-1].kind == OpKind.READ

    def test_abort_raises(self):
        ctx = BufferedContext(self.db)
        with pytest.raises(TransactionAborted):
            ctx.abort("nope")

    def test_apply_local_sets_order(self):
        ctx = BufferedContext(self.db)
        ctx.write("accounts", 1, "balance", 10)
        ctx.add("accounts", 1, "flags", 2)
        apply_local_sets(self.db, ctx.local)
        t = self.db.table("accounts")
        assert t.read(1, "balance") == 10
        assert t.read(1, "flags") == 2

    def test_nbytes_counts_cells(self):
        ctx = BufferedContext(self.db)
        assert ctx.local.nbytes == 0
        ctx.write("accounts", 1, "balance", 10)
        ctx.insert("accounts", 300, {"balance": 1, "flags": 0})
        assert ctx.local.nbytes == 8 + (8 + 4 * 2)

    def test_secondary_lookup_missing_index(self):
        ctx = BufferedContext(self.db)
        with pytest.raises(TransactionError):
            ctx.newest_row("accounts", "zzz", 1)

    def test_newest_row_by_secondary(self):
        self.db.table("accounts").add_secondary_index("flags")
        ctx = BufferedContext(self.db)
        assert ctx.newest_row("accounts", "flags", 0) == 7
        assert ctx.newest_row("accounts", "flags", 1) is None


class TestProcedureRegistry:
    def test_register_and_get(self):
        reg = ProcedureRegistry()

        @reg.register("p")
        def p(ctx):
            pass

        assert reg.get("p") is p
        assert "p" in reg
        assert reg.names() == ["p"]

    def test_register_direct(self):
        reg = ProcedureRegistry()
        fn = lambda ctx: None
        reg.register("q", fn)
        assert reg.get("q") is fn

    def test_duplicate_rejected(self):
        reg = ProcedureRegistry()
        reg.register("p", lambda ctx: None)
        with pytest.raises(TransactionError):
            reg.register("p", lambda ctx: None)

    def test_unknown_rejected(self):
        with pytest.raises(TransactionError):
            ProcedureRegistry().get("nope")


class TestTidAssignment:
    def test_fresh_tids_sequential(self):
        txns = [txn("p"), txn("p"), txn("p")]
        nxt = assign_tids(txns, 10)
        assert [t.tid for t in txns] == [10, 11, 12]
        assert nxt == 13

    def test_existing_tids_preserved(self):
        t0 = Transaction("p", (), tid=5)
        t1 = txn("p")
        nxt = assign_tids([t0, t1], 100)
        assert t0.tid == 5
        assert t1.tid == 100
        assert nxt == 101

    def test_reset_for_execution(self):
        t = Transaction("p", (), tid=1, status=TxnStatus.ABORTED)
        t.ops = [object()]
        t.reset_for_execution()
        assert len(t.ops) == 0
        assert t.status is TxnStatus.PENDING
        assert t.attempts == 1


class TestBatchScheduler:
    def test_batch_formation(self):
        s = BatchScheduler(batch_size=2)
        s.admit([txn("p"), txn("p"), txn("p")])
        b1 = s.next_batch()
        assert len(b1) == 2 and [t.tid for t in b1] == [0, 1]
        b2 = s.next_batch()
        assert len(b2) == 1 and b2[0].tid == 2

    def test_retries_lead_batches_in_tid_order(self):
        s = BatchScheduler(batch_size=4)
        s.admit([txn("p") for _ in range(4)])
        batch = s.next_batch()
        aborted = [batch[3], batch[1]]
        s.requeue_aborted(aborted)
        s.admit([txn("p") for _ in range(4)])
        nxt = s.next_batch()
        assert [t.tid for t in nxt[:2]] == [1, 3]
        assert len(nxt) == 4

    def test_retry_delay_two_batches(self):
        s = BatchScheduler(batch_size=2)
        s.admit([txn("p"), txn("p")])
        batch = s.next_batch()  # batch_index now 1
        s.requeue_aborted([batch[0]], delay=2)
        assert s.next_batch() == []  # not eligible yet (index 1)
        nxt = s.next_batch()  # index 2: eligible
        assert [t.tid for t in nxt] == [0]

    def test_pipelined_buckets_interleave_with_fresh_arrivals(self):
        """Retries from two delay buckets (one refilled at another delay,
        one overflowing a batch) merge with fresh arrivals: each cut's
        lanes and TIDs, and the backlog after it, as recorded."""
        s = BatchScheduler(batch_size=4)
        named = {}

        def arrive(prefix, k):
            lanes = [txn(f"{prefix}{i}") for i in range(k)]
            named.update((t.procedure_name, t) for t in lanes)
            s.admit(lanes)

        def cut():
            batch = s.next_batch()
            return [(t.procedure_name, t.tid) for t in batch], s.backlog

        def requeue(names, delay):
            s.requeue_aborted([named[n] for n in names], delay=delay)

        arrive("a", 6)
        assert cut() == ([("a0", 0), ("a1", 1), ("a2", 2), ("a3", 3)], 2)
        requeue(["a3", "a1"], 2)
        arrive("b", 3)
        assert cut() == ([("a4", 4), ("a5", 5), ("b0", 6), ("b1", 7)], 3)
        requeue(["b1", "a4"], 2)
        assert s.eligible_backlog == 3
        assert cut() == ([("a1", 1), ("a3", 3), ("b2", 8)], 2)
        requeue(["a3"], 2)
        requeue(["b2"], 1)
        arrive("c", 5)
        assert s.eligible_backlog == 8
        assert cut() == ([("a4", 4), ("b1", 7), ("b2", 8), ("c0", 9)], 5)
        assert cut() == ([("a3", 3), ("c1", 10), ("c2", 11), ("c3", 12)], 1)
        requeue(["c3", "c1", "a0", "b0", "c2"], 1)
        assert cut() == ([("a0", 0), ("b0", 6), ("c1", 10), ("c2", 11)], 2)
        requeue(["a5", "a2"], 1)
        arrive("d", 2)
        assert cut() == ([("a2", 2), ("a5", 5), ("c3", 12), ("c4", 13)], 2)
        assert cut() == ([("d0", 14), ("d1", 15)], 0)
        assert cut() == ([], 0)

    def test_unadmitted_abort_rejected(self):
        s = BatchScheduler(batch_size=2)
        with pytest.raises(TransactionError):
            s.requeue_aborted([txn("p")])

    def test_requeue_checks_every_lane_before_queueing_any(self):
        s = BatchScheduler(batch_size=2)
        admitted, stray = txn("p"), txn("p")
        admitted.tid = 3
        with pytest.raises(TransactionError):
            s.requeue_aborted([admitted, stray])
        assert s.backlog == 0 and s.next_batch() == []

    def test_backlog_and_has_work(self):
        s = BatchScheduler(batch_size=2)
        assert not s.has_work()
        s.admit([txn("p")])
        assert s.backlog == 1
        s.next_batch()
        assert not s.has_work()

    def test_invalid_params(self):
        with pytest.raises(TransactionError):
            BatchScheduler(batch_size=0)
        s = BatchScheduler(batch_size=1)
        s.admit([txn("p")])
        with pytest.raises(TransactionError):
            s.requeue_aborted(s.next_batch(), delay=0)


class TestDecomposition:
    def make_txns(self):
        db, registry = build_bank(accounts=32)
        txns = []
        for i in range(8):
            t = txn("transfer", i, i + 1, 5)
            t.tid = i
            ctx = BufferedContext(db)
            registry.get(t.procedure_name)(ctx, *t.params)
            t.ops = ctx.ops
            txns.append(t)
        # mix in deposits so op streams differ between threads
        for i in range(8):
            t = txn("deposit", i, 1)
            t.tid = 8 + i
            ctx = BufferedContext(db)
            registry.get(t.procedure_name)(ctx, *t.params)
            t.ops = ctx.ops
            txns.append(t)
        return txns

    def test_grouped_has_no_divergence(self):
        plan = plan_grouped(self.make_txns())
        assert plan.divergent_branches == 0
        assert plan.mode == "grouped"
        assert plan.total_ops == sum(len(t.ops) for t in self.make_txns())

    def test_naive_diverges_on_mixed_streams(self):
        plan = plan_naive(self.make_txns())
        assert plan.divergent_branches > 0
        assert plan.mode == "naive"

    def test_grouped_fewer_or_equal_warps_lane_steps(self):
        txns = self.make_txns()
        g = plan_grouped(txns)
        n = plan_naive(txns)
        assert g.utilization >= n.utilization

    def test_empty_batch(self):
        g = plan_grouped([])
        assert g.warps == 0 and g.total_ops == 0
        n = plan_naive([])
        assert n.warps == 0
