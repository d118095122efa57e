"""Batch-to-batch pipeline: overlap, retry delay, throughput gain."""

from __future__ import annotations

import json

import pytest

from helpers import build_bank, txn
from repro.analysis.workload import build_workload
from repro.bench import steady_state_run
from repro.core import LTPGConfig, LTPGEngine
from repro.serve.api import simulate_serve
from repro.txn import BatchScheduler, drive


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
    @pytest.mark.parametrize(
        "config, streams, delay",
        [
            (dict(), ("stream0",) * 3, 1),
            (dict(pipelined=True), ("h2d", "compute", "d2h"), 2),
            (dict(retry_delay_batches=3), ("stream0",) * 3, 3),
            (dict(pipelined=True, retry_delay_batches=3), ("h2d", "compute", "d2h"), 3),
        ],
        ids=["serial", "pipelined", "delay-3", "pipelined-delay-3"],
    )
    def test_config_selects_streams_and_retry_delay(self, config, streams, delay):
        db, registry = build_bank()
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=16, **config))
        assert (engine.h2d_stream, engine.compute_stream, engine.d2h_stream) == streams
        assert engine.retry_delay == delay

    def test_pipelined_makespan_beats_serial(self):
        results = {}
        for mode in ("serial", "pipelined"):
            db, registry = build_bank(accounts=256)
            config = LTPGConfig(batch_size=128, pipelined=(mode == "pipelined"))
            engine = LTPGEngine(db, registry, config)
            steady_state_run(engine, FixedGenerator(256), 128, 8)
            results[mode] = engine.device.elapsed_ns()
        assert results["pipelined"] < results["serial"]

    def test_served_pipelined_run_overlaps_on_three_streams(self, tmp_path):
        """The serve loop builds its engine from the config alone, so a
        pipelined override overlaps the legs there too."""
        makespans = {}
        for pipelined in (False, True):
            path = tmp_path / f"{pipelined}.json"
            simulate_serve(
                "smallbank", engine_overrides={"pipelined": pipelined},
                trace_out=str(path),
            )
            events = json.loads(path.read_text())["traceEvents"]
            tracks = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
            device = [e for e in events if e.get("cat") in ("kernel", "transfer")]
            streams = {tracks[e["tid"]] for e in device}
            assert streams == ({"h2d", "compute", "d2h"} if pipelined else {"stream0"})
            makespans[pipelined] = max(e["ts"] + e["dur"] for e in device)
        assert makespans[True] < makespans[False]

    def test_pipelined_results_identical_to_serial(self):
        # A ring of conflicting transfers commits exactly one txn per
        # batch (every other txn WAW-chains on the minimum TID), so give
        # the loop enough batches to drain completely before comparing.
        digests = {}
        for mode in ("serial", "pipelined"):
            db, registry = build_bank(accounts=64)
            config = LTPGConfig(batch_size=32, pipelined=(mode == "pipelined"))
            engine = LTPGEngine(db, registry, config)
            txns = [txn("transfer", i % 8, (i + 1) % 8, 1) for i in range(16)]
            scheduler = BatchScheduler(32)
            scheduler.admit(txns)
            engine.process(scheduler, max_batches=200)
            assert all(t.is_final for t in txns)
            digests[mode] = db.state_digest()
        # Same final state: retry *timing* differs but every transfer
        # eventually applies its +/- amount, and addition commutes.
        assert digests["serial"] == digests["pipelined"]

    def test_per_batch_latency_spans_streams(self):
        db, registry = build_bank(accounts=64)
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=16, pipelined=True))
        txns = [txn("deposit", i, 1) for i in range(16)]
        for i, t in enumerate(txns):
            t.tid = i
        result = engine.run_batch(txns)
        assert result.stats.latency_ns > 0
        assert result.stats.transfer_ns > 0

    def test_pipelined_latency_does_not_grow_with_the_batch_index(self):
        """Inputs are double-buffered: batch n+1 uploads while batch n
        computes, never further ahead, so a steady stream's per-batch
        latency settles instead of climbing with the copy stream."""
        setup = build_workload("smallbank", seed=7)
        engine = setup.engine(batch_size=64, pipelined=True)
        latencies = [
            result.stats.latency_ns
            for result in drive(
                engine, BatchScheduler(64), setup.generator.make_batch, 12
            )
        ]
        # batch 0 has nothing to overlap with; from batch 1 on it is flat
        assert max(latencies[1:]) < 1.1 * latencies[1]
