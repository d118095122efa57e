"""Durability: periodic snapshots, batch logs, and crash recovery.

Run:  python examples/durability_recovery.py

Processes TPC-C batches while taking periodic snapshots (the paper:
"database snapshots are saved regularly to the hard drive ... the CPU
also records each batch of transactions as logs"), then simulates a
crash and recovers by restoring the last snapshot and deterministically
replaying the logged batches.  The recovered state is byte-identical.
"""

from __future__ import annotations

from repro.bench import ltpg_config
from repro.core import LTPGEngine
from repro.storage import SnapshotManager, recover
from repro.txn import BatchScheduler, drive
from repro.workloads.tpcc import build_tpcc

BATCH = 512
BATCHES = 10
SNAPSHOT_EVERY = 4


def main() -> None:
    db, registry, generator = build_tpcc(warehouses=2, num_items=5000, seed=3)
    config = ltpg_config(BATCH)
    engine = LTPGEngine(db, registry, config)
    scheduler = BatchScheduler(BATCH)
    snapshots = SnapshotManager(interval_batches=SNAPSHOT_EVERY)

    # a snapshot's index counts the batches applied before it
    snapshots.maybe_capture(db, 0)
    batches = drive(engine, scheduler, generator.make_batch, max_batches=BATCHES)
    for ran, result in enumerate(batches, start=1):
        print(f"batch {result.stats.batch_index}: committed "
              f"{result.stats.committed:4d}/{result.stats.num_txns}, "
              f"snapshots kept: {len(snapshots)}")
        snapshots.maybe_capture(db, ran)

    pre_crash = db.state_digest()
    last = snapshots.latest
    print(f"\n-- crash -- (last snapshot after batch {last.batch_index}, "
          f"log holds {len(engine.batch_log)} batches)")

    recovered_engine, report = recover(
        last,
        engine.batch_log,
        lambda database: LTPGEngine(database, registry, config),
    )
    print(f"replayed {report.batches_replayed} batches "
          f"({report.transactions_replayed} transactions)")
    ok = report.final_digest == pre_crash
    print(f"recovered state identical to pre-crash state: {ok}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
