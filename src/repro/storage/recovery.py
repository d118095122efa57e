"""Crash recovery: periodic snapshots + deterministic batch-log replay.

The paper's durability story (§IV): "Database snapshots are saved
regularly to the hard drive for permanent storage.  The CPU also
records each batch of transactions on the hard drive as logs. ...  If
re-execution is necessary, the system pulls the transactions from the
log, while preserving their original TIDs ... the same commit policy
ensures uniform commit results, ensuring LTPG's determinism."

That is exactly the classic deterministic-database recovery argument:
*state = snapshot + replay of logged batches*, with no per-write REDO
records, because re-processing a logged batch through the same
deterministic engine reproduces the same commits.  :func:`recover`
implements it against any engine exposing ``run_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.storage.snapshot import Snapshot
from repro.storage.wal import BatchLog, BatchRecord
from repro.txn.transaction import Transaction


@dataclass(frozen=True)
class RecoveryReport:
    """What a recovery pass did."""

    snapshot_batch: int
    batches_replayed: int
    transactions_replayed: int
    final_digest: str
    #: Entries skipped because the engine raised on them before
    #: installing anything (``BatchRecord.failed``).
    batches_failed: int = 0


def transactions_from_record(record: BatchRecord) -> list[Transaction]:
    """Rebuild the batch's transactions with their original TIDs."""
    return [
        Transaction(r.procedure, r.params, tid=r.tid) for r in record.records
    ]


def recover(
    snapshot: Snapshot,
    log: BatchLog,
    make_engine,
) -> tuple[object, RecoveryReport]:
    """Restore a database from ``snapshot`` and replay every logged
    batch with index > snapshot.batch_index.

    ``make_engine(database)`` must return an engine whose ``run_batch``
    implements the same deterministic commit policy that produced the
    log (normally a fresh ``LTPGEngine`` with the same config).  Returns
    ``(engine, report)``; the recovered state lives in
    ``engine.database``.

    Determinism does the heavy lifting: because TIDs, batch composition
    and the commit rule are identical, the replay commits exactly the
    transactions the pre-crash run committed — verified by comparing
    digests in the test suite.
    """
    database = snapshot.restore()
    engine = make_engine(database)
    replayed = 0
    failed = 0
    txn_count = 0
    # Convention: snapshot.batch_index counts batches already applied
    # when the snapshot was captured, so replay resumes at that index.
    for record in log.batches():
        if record.batch_index < snapshot.batch_index:
            continue
        if record.failed:
            # the live run raised on this batch and left the snapshot
            # alone; replaying it would only raise again
            failed += 1
            continue
        batch = transactions_from_record(record)
        result = engine.run_batch(batch)
        # None = the crash came before the outcome was logged; an
        # empty column is an outcome like any other and must match.
        expected = record.committed_tids
        got = np.sort(np.fromiter((t.tid for t in result.committed), np.int64))
        if expected is not None and not np.array_equal(got, expected):
            raise StorageError(
                f"non-deterministic replay of batch {record.batch_index}: "
                f"expected commits {expected[:8].tolist()}..., got "
                f"{got[:8].tolist()}..."
            )
        replayed += 1
        txn_count += len(batch)
    report = RecoveryReport(
        snapshot_batch=snapshot.batch_index,
        batches_replayed=replayed,
        transactions_replayed=txn_count,
        final_digest=database.state_digest(),
        batches_failed=failed,
    )
    return engine, report
