"""Output checks, run by ``run.py`` after every measured run.

* :func:`check_books` — the served run closes its books: every request
  posted is committed, logic-aborted or failed once the ingress has
  drained, and the driver's tallies agree with the orchestrator's.
* :func:`check_serial_replay` — on a fresh, smaller database of the same
  workload and seed, two batches go through the same engine config
  (``BatchScheduler`` assigns TIDs and carries the first batch's aborts
  into the second); the committed transactions are then replayed one by
  one, in the engine's own witness order, on a copy taken before the
  batch, and both states must have the same ``state_digest()``.
* :func:`batch_chain` — a running hash over every batch's outcome, so
  two runs can be compared batch for batch (the closed loop makes the
  sequence of batches a function of the seed alone).
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.txn import (
    BatchScheduler,
    BufferedContext,
    Transaction,
    apply_local_sets,
)


def check_books(loop: Any, orch: Any) -> list[str]:
    """Problems with the run's accounting; empty when the books close."""
    problems = []
    counters = orch.metrics.snapshot()["counters"]
    committed = counters.get("serve.committed", 0)
    logic = counters.get("serve.logic_aborted", 0)
    settled = loop.completed + loop.failed + loop.shed
    if loop.posted != settled:
        problems.append(
            f"books: posted {loop.posted} != completed {loop.completed} + "
            f"failed {loop.failed} + shed {loop.shed}"
        )
    if orch.queue_depth:
        problems.append(f"books: {orch.queue_depth} requests still queued")
    if (committed, logic) != (loop.committed, loop.logic_aborted):
        problems.append(
            f"books: orchestrator says {committed} committed / {logic} "
            f"logic-aborted, clients saw {loop.committed} / "
            f"{loop.logic_aborted}"
        )
    retries = counters.get("serve.retries", 0)
    if loop.attempts - loop.completed != retries:
        problems.append(
            f"books: responses carry {loop.attempts - loop.completed} "
            f"retries, orchestrator counted {retries}"
        )
    if loop.failed or loop.shed:
        problems.append(
            f"books: {loop.failed} requests failed, {loop.shed} were shed"
        )
    return problems


def check_serial_replay(
    workload: Any, sizes: Any, seed: int, batches: int = 2
) -> list[str]:
    """Problems found replaying ``batches`` batches serially."""
    db, registry, generator = workload.build(sizes.verify_data, seed)
    engine, _ = workload.engine(db, registry, sizes.batch_size)
    scheduler = BatchScheduler(sizes.verify_lanes)
    problems = []
    try:
        for index in range(batches):
            fresh = sizes.verify_lanes - scheduler.eligible_backlog
            if fresh > 0:
                scheduler.admit(generator.make_batch(fresh))
            reference = db.copy()
            batch = scheduler.next_batch()
            result = engine.run_batch(batch)
            scheduler.requeue_aborted(result.aborted)
            by_tid: dict[int, Transaction] = {
                t.tid: t for t in result.committed
            }
            for tid in result.serial_order():
                txn = by_tid[tid]
                ctx = BufferedContext(reference)
                registry.get(txn.procedure_name)(ctx, *txn.params)
                apply_local_sets(reference, ctx.local)
            if reference.state_digest() != db.state_digest():
                problems.append(
                    f"serial replay: batch {index} ({len(by_tid)} committed "
                    f"of {len(batch)}) diverges from the engine's state"
                )
            if not by_tid:
                problems.append(f"serial replay: batch {index} committed nothing")
    finally:
        engine.close()
    return problems


def batch_chain(stats: list[Any]) -> list[str]:
    """Running digest after each batch of (lanes, committed, aborted,
    logic-aborted, simulated latency)."""
    h = hashlib.sha256()
    chain = []
    for s in stats:
        h.update(
            f"{s.num_txns},{s.committed},{s.aborted},{s.logic_aborted},"
            f"{s.latency_ns!r};".encode()
        )
        chain.append(h.hexdigest()[:12])
    return chain
