"""The serve loop sizes the collector's young generation to the batch.

While ``Orchestrator._batch_loop`` runs, the generation-0 threshold is at
least ``YOUNG_BATCHES`` batches of requests, so the cyclic collector
stops walking the requests in flight; when the loop ends it puts the
threshold back, unless someone else changed it meanwhile.  Counts, not
clocks: thresholds read back, and collections counted with
``gc.callbacks``.
"""

from __future__ import annotations

import asyncio
import gc
from collections import Counter

import pytest
from helpers import StubEngine

from repro.core import LTPGConfig, LTPGEngine
from repro.serve.clock import run_simulation
from repro.serve.orchestrator import YOUNG_BATCHES, Orchestrator
from repro.serve.policies import SizePolicy
from repro.workloads.smallbank import build_smallbank

pytestmark = pytest.mark.serve

CAPACITY = 512
RAISED = YOUNG_BATCHES * CAPACITY


@pytest.fixture(autouse=True)
def collector():
    """Each test starts from the interpreter's defaults and leaves the
    collector as it found it."""
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def _serve(policy=None, during=None):
    """Serve a few requests; return the thresholds read while serving
    (after ``during`` ran) and after the drain."""
    orch = Orchestrator(StubEngine(batch_size=CAPACITY), policy=policy or SizePolicy(CAPACITY))

    async def main():
        tickets = [orch.post("p", (k,)) for k in range(2 * CAPACITY)]
        await asyncio.sleep(0)  # the loop task starts
        if during is not None:
            during()
        serving = gc.get_threshold()
        await asyncio.gather(*tickets)
        await orch.drain()
        return serving

    serving = run_simulation(main())
    return serving, gc.get_threshold()


def test_raised_while_serving_and_restored_after_drain():
    serving, after = _serve()
    assert serving == (RAISED, 10, 10)
    assert after == (700, 10, 10)


def test_restored_after_the_loop_task_fails():
    class Broken(SizePolicy):
        def should_cut(self, view):
            raise RuntimeError("policy bug")

    orch = Orchestrator(StubEngine(batch_size=CAPACITY), policy=Broken(CAPACITY))

    async def main():
        orch.post("p", (1,))
        await asyncio.sleep(0)
        with pytest.raises(RuntimeError, match="policy bug"):
            await orch.drain()

    run_simulation(main())
    assert gc.get_threshold() == (700, 10, 10)


def test_restored_after_the_loop_task_is_cancelled():
    orch = Orchestrator(StubEngine(batch_size=CAPACITY), policy=SizePolicy(CAPACITY))

    async def main():
        orch.start()
        await asyncio.sleep(0)
        assert gc.get_threshold()[0] == RAISED
        orch._task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await orch._task

    run_simulation(main())
    assert gc.get_threshold() == (700, 10, 10)


def test_a_higher_threshold_is_left_alone():
    gc.set_threshold(10 * RAISED, 7, 3)
    serving, after = _serve()
    assert serving == after == (10 * RAISED, 7, 3)


def test_a_threshold_changed_mid_run_is_not_clobbered():
    serving, after = _serve(during=lambda: gc.set_threshold(1234, 5))
    assert serving == after == (1234, 5, 10)


def test_older_generations_keep_a_change_made_mid_run():
    serving, after = _serve(during=lambda: gc.set_threshold(RAISED, 20, 30))
    assert serving == (RAISED, 20, 30)
    assert after == (700, 20, 30)


def test_a_disabled_collector_stays_disabled():
    gc.disable()
    enabled = []
    _serve(during=lambda: enabled.append(gc.isenabled()))
    assert enabled == [False] and not gc.isenabled()


def test_a_steady_served_stream_is_not_collected():
    """A closed-loop SmallBank stream at 1,024 lanes a batch, two
    clients per lane, holds its number of tracked objects: over eight
    steady batches the collector runs (near) never.  At the
    interpreter's default threshold of 700 it ran twice a batch."""
    lanes, warm, steady = 1024, 4, 8
    db, registry, generator = build_smallbank(num_accounts=16 * lanes, zipf_alpha=0.0, seed=7)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=lanes))
    specs = [(t.procedure_name, t.params) for t in generator.make_batch(16 * lanes)]
    started: Counter = Counter()

    def count(phase, info):
        if phase == "start":
            started[info["generation"]] += 1

    async def main():
        orch = Orchestrator(engine, policy=SizePolicy(lanes))
        pending = iter(specs)

        async def client():
            for procedure, params in pending:
                await orch.post(procedure, params)

        clients = [asyncio.ensure_future(client()) for _ in range(2 * lanes)]
        while len(orch.batch_records) < warm:
            await orch.clock.sleep_ns(1_000)
        gc.collect()
        gc.callbacks.append(count)
        try:
            while len(orch.batch_records) < warm + steady:
                await orch.clock.sleep_ns(1_000)
        finally:
            gc.callbacks.remove(count)
        for task in clients:
            task.cancel()
        await asyncio.gather(*clients, return_exceptions=True)
        await orch.drain()

    run_simulation(main())
    assert sum(started.values()) <= 1, started
