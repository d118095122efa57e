"""Served stream ≡ pre-generated batches: byte-identical final state.

The serving layer claims it changes *when* batches are cut, never what
they commit.  Two differentials back that up on all three benchmark
workloads (TPC-C, YCSB-A, SmallBank):

* **size policy vs. pre-generated** — serving a request stream under
  :class:`SizePolicy` must commit byte-identical database state to the
  classic path (admit everything up front, form fixed-size batches with
  the same :class:`BatchScheduler`, run until drained), because the
  orchestrator reuses that scheduler verbatim: same TID assignment,
  same retries-first ordering, same pipeline delays.
* **deadline/hybrid replay** — deadline-cut batch compositions depend
  on arrival timing, so there is no closed-form reference.  Instead the
  serve run records every cut batch's (request, TID) columns, and the
  test replays those exact batches against a fresh engine + database;
  the digests must match, proving the serve path's *execution* adds
  nothing beyond batch forming.

Both differentials run configurations that actually abort and retry —
a serve layer that never re-queued an abort would pass trivially.
"""

from __future__ import annotations

import pytest

from repro.analysis.workload import WORKLOAD_NAMES, build_workload
from repro.serve.clock import run_simulation
from repro.serve.orchestrator import Orchestrator
from repro.serve.policies import make_policy
from repro.txn.batch import BatchScheduler, drive
from repro.txn.transaction import Transaction

pytestmark = pytest.mark.serve

#: Per-workload engine overrides chosen so every configuration aborts
#: and retries (YCSB-A with delayed updates on commits everything —
#: turning them off restores write-write conflicts).
CONFLICT_OVERRIDES = {
    "tpcc": {},
    "ycsb": {"delayed_update": False, "logical_reordering": False},
    "smallbank": {},
}

SEED = 1234


def _specs(name: str, count: int) -> list[tuple[str, tuple]]:
    """Draw ``count`` transaction bodies the way the ingress does: one
    at a time from a fresh, seeded workload generator."""
    setup = build_workload(name, seed=SEED)
    return [
        (t.procedure_name, t.params)
        for _ in range(count)
        for t in setup.generator.make_batch(1)
    ]


def _engine(name: str, batch_size: int, **overrides):
    setup = build_workload(name, seed=SEED)
    merged = dict(CONFLICT_OVERRIDES[name])
    merged.update(overrides)
    return setup.engine(batch_size=batch_size, **merged)


def _serve(name, specs, policy_name, batch_size, gap_ns=150, **overrides):
    """Serve ``specs`` in order on the virtual clock; return the final
    digest, per-request responses and the orchestrator."""
    engine = _engine(name, batch_size, **overrides)
    policy = make_policy(policy_name, batch_size, max_wait_ns=2_000)

    async def main():
        async with Orchestrator(engine, policy=policy) as orch:
            futures = []
            for procedure, params in specs:
                await orch.clock.sleep_ns(gap_ns)
                futures.append(orch.post(procedure, params))
        responses = [await f for f in futures]
        return responses, orch

    try:
        responses, orch = run_simulation(main())
        digest = engine.database.state_digest()
    finally:
        engine.close()
    return digest, responses, orch


def _retries(orch) -> int:
    return orch.metrics.counter("serve.retries").value


def _pregenerated(name, specs, batch_size, **overrides):
    """The classic path: admit everything, :func:`drive` fixed-size
    batches until drained.  Returns the final digest, the transactions
    and each batch's stats."""
    engine = _engine(name, batch_size, **overrides)
    txns = [Transaction(procedure, params) for procedure, params in specs]
    scheduler = BatchScheduler(
        batch_size, retry_delay_batches=engine.config.effective_retry_delay
    )
    scheduler.admit(txns)
    try:
        stats = [result.stats for result in drive(engine, scheduler)]
        digest = engine.database.state_digest()
    finally:
        engine.close()
    return digest, txns, stats


def _replay(name, specs, records, **overrides):
    """Re-run the recorded batch compositions against a fresh engine."""
    batch_size = max((len(r.seqs) for r in records), default=1)
    engine = _engine(name, batch_size, **overrides)
    txns = [Transaction(procedure, params) for procedure, params in specs]
    try:
        for record in records:
            batch = []
            for seq, tid in zip(record.seqs, record.tids):
                txn = txns[seq]
                if txn.tid < 0:
                    txn.tid = tid
                else:
                    assert txn.tid == tid, "retry must keep its first TID"
                batch.append(txn)
            engine.run_batch(batch)
        digest = engine.database.state_digest()
    finally:
        engine.close()
    return digest, txns


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("batch_size", [16, 48])
def test_size_policy_matches_pregenerated(workload, batch_size):
    specs = _specs(workload, 160)
    served, responses, orch = _serve(workload, specs, "size", batch_size)
    pregen, txns, _stats = _pregenerated(workload, specs, batch_size)
    assert served == pregen
    # not a trivial pass: the stream must have aborted and retried
    assert _retries(orch) > 0
    # per-request verdicts line up too, not just the aggregate state
    assert [r.status for r in responses] == [t.status for t in txns]
    assert [r.tid for r in responses] == [t.tid for t in txns]
    assert [r.attempts for r in responses] == [t.attempts for t in txns]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize(
    "policy_name,batch_size", [("deadline", 16), ("hybrid", 24), ("hybrid", 8)]
)
def test_deadline_cuts_replay_identically(workload, policy_name, batch_size):
    specs = _specs(workload, 160)
    # dense arrivals so deadline cuts still form conflict-heavy batches
    served, responses, orch = _serve(
        workload, specs, policy_name, batch_size, gap_ns=40
    )
    replayed, txns = _replay(workload, specs, orch.batch_records)
    assert served == replayed
    assert _retries(orch) > 0
    assert [r.status for r in responses] == [t.status for t in txns]
    # deadline cuts must actually have produced partial batches, or this
    # test degenerates into the size-policy one
    sizes = [len(r.seqs) for r in orch.batch_records if r.seqs]
    assert any(s < batch_size for s in sizes)


@pytest.mark.parametrize("workload", ["smallbank", "tpcc"])
def test_pipelined_retry_delay_matches(workload):
    """Pipelined mode (retry +2 batches) exercises the orchestrator's
    index-advancing empty cuts.  They advance the scheduler and run
    nothing, as :func:`drive`'s do: state, the engine's batch indices
    and the batch log all match the classic path."""
    specs = _specs(workload, 120)
    served, _responses, orch = _serve(
        workload, specs, "size", 16, pipelined=True
    )
    pregen, _txns, stats = _pregenerated(workload, specs, 16, pipelined=True)
    assert served == pregen
    assert _retries(orch) > 0
    if workload == "smallbank":
        # not a trivial pass: this stream makes empty cuts
        assert any(not r.seqs for r in orch.batch_records)
    indices = [s.batch_index for s in orch.run_stats.batches]
    assert indices == [s.batch_index for s in stats]
    logged = [e.batch_index for e in orch.engine.batch_log.batches()]
    assert logged == indices == list(range(len(indices)))


def test_simulated_serve_on_the_device_backend_matches_the_host():
    """``simulate_serve`` — behind ``python -m repro.serve`` and
    ``python -m repro.bench serve`` — builds the engine it is asked for
    and nothing more, so a device-backend override serves the same
    report as the host (the transfer counters aside)."""
    from repro.serve.api import simulate_serve

    reports = [
        simulate_serve(
            "smallbank", num_requests=128, engine_overrides={"array_backend": b}
        ).__dict__
        for b in ("numpy", "mockgpu")
    ]
    for report in reports:
        del report["metrics"]
    assert reports[0] == reports[1]
    assert reports[0]["committed"] > 0
