"""Batch-to-batch pipeline: overlap, retry delay, throughput gain."""

from __future__ import annotations

import pytest

from helpers import build_bank, txn
from repro.bench import steady_state_run
from repro.core import LTPGConfig, LTPGEngine
from repro.core.pipeline import pipelined, run_pipelined
from repro.txn import BatchScheduler


class FixedGenerator:
    """Feeds an endless supply of disjoint transfers."""

    def __init__(self, accounts: int):
        self.accounts = accounts
        self._next = 0

    def make_batch(self, size: int):
        out = []
        for _ in range(size):
            a = self._next % (self.accounts // 2)
            out.append(txn("transfer", 2 * a, 2 * a + 1, 1))
            self._next += 1
        return out


class TestPipeline:
    def test_context_manager_restores_streams(self):
        db, registry = build_bank()
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=16))
        with pipelined(engine) as e:
            assert e.compute_stream == "compute"
        assert engine.compute_stream == "stream0"

    def test_pipelined_makespan_beats_serial(self):
        results = {}
        for mode in ("serial", "pipelined"):
            db, registry = build_bank(accounts=256)
            config = LTPGConfig(batch_size=128, pipelined=(mode == "pipelined"))
            engine = LTPGEngine(db, registry, config)
            gen = FixedGenerator(256)
            if mode == "pipelined":
                with pipelined(engine):
                    steady_state_run(engine, gen, 128, 8)
            else:
                steady_state_run(engine, gen, 128, 8)
            results[mode] = engine.device.elapsed_ns()
        assert results["pipelined"] < results["serial"]

    def test_pipelined_results_identical_to_serial(self):
        # A ring of conflicting transfers commits exactly one txn per
        # batch (every other txn WAW-chains on the minimum TID), so give
        # the loop enough batches to drain completely before comparing.
        digests = {}
        for mode in ("serial", "pipelined"):
            db, registry = build_bank(accounts=64)
            config = LTPGConfig(batch_size=32)
            engine = LTPGEngine(db, registry, config)
            txns = [txn("transfer", i % 8, (i + 1) % 8, 1) for i in range(16)]
            scheduler = BatchScheduler(
                32, retry_delay_batches=2 if mode == "pipelined" else 1
            )
            scheduler.admit(txns)
            if mode == "pipelined":
                run_pipelined(engine, scheduler, max_batches=200)
            else:
                engine.process(scheduler, max_batches=200)
            assert all(t.is_final for t in txns)
            digests[mode] = db.state_digest()
        # Same final state: retry *timing* differs but every transfer
        # eventually applies its +/- amount, and addition commutes.
        assert digests["serial"] == digests["pipelined"]

    def test_per_batch_latency_spans_streams(self):
        db, registry = build_bank(accounts=64)
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=16))
        with pipelined(engine):
            txns = [txn("deposit", i, 1) for i in range(16)]
            for i, t in enumerate(txns):
                t.tid = i
            result = engine.run_batch(txns)
        assert result.stats.latency_ns > 0
        assert result.stats.transfer_ns > 0
