"""Run-level metrics (percentiles, retry histogram, conflict
observability) and the full-mix and contention-sweep shapes."""

from __future__ import annotations

import pytest

from helpers import bank_engine, smoke, txn, violates
from repro.core.stats import BatchStats, RunStats


class TestRunMetrics:
    def make_run(self, latencies):
        run = RunStats()
        for i, lat in enumerate(latencies):
            run.add(BatchStats(i, 10, 10, 0, latency_ns=float(lat)))
        return run

    def test_percentiles(self):
        run = self.make_run([100, 200, 300, 400, 500])
        assert run.latency_percentile(0) == 100
        assert run.latency_percentile(50) == 300
        assert run.latency_percentile(100) == 500

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            self.make_run([1]).latency_percentile(101)

    def test_percentile_empty_run(self):
        assert RunStats().latency_percentile(50) == 0.0

    def test_abort_reason_totals(self):
        run = RunStats()
        b1 = BatchStats(0, 4, 2, 2)
        b1.abort_reasons["waw"] = 2
        b2 = BatchStats(1, 4, 3, 1)
        b2.abort_reasons["waw"] = 1
        b2.abort_reasons["raw"] = 1
        run.add(b1)
        run.add(b2)
        totals = run.abort_reason_totals()
        assert totals["waw"] == 3
        assert totals["raw"] == 1


class TestEngineObservability:
    def test_commit_attempts_recorded(self):
        engine, _, _ = bank_engine()
        txns = [txn("transfer", 0, 1, 1) for _ in range(4)]
        for i, t in enumerate(txns):
            t.tid = i
        result = engine.run_batch(txns)
        assert result.stats.commit_attempts[1] == 1
        retry = engine.run_batch(result.aborted)
        assert retry.stats.commit_attempts[2] == 1

    def test_registration_counts_and_chain(self):
        engine, _, _ = bank_engine()
        txns = [txn("transfer", 0, 1, 1) for _ in range(8)]
        for i, t in enumerate(txns):
            t.tid = i
        result = engine.run_batch(txns)
        stats = result.stats
        assert stats.registered_reads == 16   # 2 reads/txn, deduped
        assert stats.registered_writes == 16
        assert stats.max_atomic_chain >= 8    # all txns hit accounts 0/1


class TestFullMix:
    def test_all_five_types_flow(self):
        # the shape (read-only types never CC-abort, writers mostly
        # commit, retries decay) is the fullmix spec's predicate, run on
        # this case by test_bench; here: it rejects a violation
        violates("fullmix", (), "orderstatus_rate", 0.5)
        violates("fullmix", (), "neworder_rate", 0.1)


class TestContentionSweep:
    def test_optimized_curve_degrades_gracefully(self):
        hot = smoke("sweep")[(1.0, True)]
        violates("sweep", (1.0, False), "mtps", 2 * hot["mtps"])
        violates("sweep", (1.0, True), "commit_rate", 1.0)
