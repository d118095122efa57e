"""Batch logging for determinism and recovery.

The paper: "The CPU also records each batch of transactions on the hard
drive as logs.  LTPG guarantees consistent transaction outcomes by
assigning a unique TID to each transaction in a batch, logging it for
reference.  If re-execution is necessary, the system pulls the
transactions from the log, while preserving their original TIDs."

:class:`BatchLog` records, per batch, every transaction's (tid,
procedure, params) plus the commit decisions;
:func:`repro.storage.recovery.recover` replays it onto a snapshot,
which is how the determinism tests validate that re-running the log
reproduces the database state.

The log's granularity is the *batch*: one entry holds the batch's
transactions as three columns (TIDs, procedure names, parameter
tuples) serialized once into a single ``bytes`` payload.  Rows
(:class:`LogRecord`) are decoded only when somebody asks for them, so
appending costs a constant number of garbage-collector-tracked objects
per batch however many lanes it has.  The payload is the log's only
serialized form: command logging at batch granularity needs nothing
but what recovery reads back.
"""

from __future__ import annotations

import pickle
from typing import NamedTuple

from repro.errors import StorageError


class LogRecord(NamedTuple):
    """One transaction as it entered a batch."""

    tid: int
    procedure: str
    params: tuple


class BatchRecord:
    """The log entry for one processed batch.

    The inputs live in ``_payload`` — ``(tids, procedures, params)`` as
    three aligned lists, pickled once.  :attr:`records` decodes them
    afresh on every access and keeps nothing.

    ``committed_tids`` / ``aborted_tids`` stay ``None`` until
    :meth:`BatchLog.record_outcome` ran: "no outcome recorded" and
    "recorded, nothing committed" are different facts to recovery.
    ``failed`` is the third fact: the engine raised on this batch
    before touching the snapshot (:meth:`BatchLog.mark_failed`), so it
    has no outcome and must not be replayed.
    """

    __slots__ = (
        "batch_index", "_payload", "committed_tids", "aborted_tids", "failed",
    )

    def __init__(
        self, batch_index: int, tids: list[int], procedures: list[str], params: list
    ) -> None:
        self.batch_index = batch_index
        self._payload = pickle.dumps(
            (tids, procedures, list(map(tuple, params))),
            pickle.HIGHEST_PROTOCOL,
        )
        self.committed_tids: list[int] | None = None
        self.aborted_tids: list[int] | None = None
        self.failed = False

    @property
    def records(self) -> list[LogRecord]:
        """The batch's transactions in batch order, decoded on demand."""
        # only ever bytes this process pickled in __init__
        return list(map(LogRecord._make, zip(*pickle.loads(self._payload))))


class BatchLog:
    """An append-only in-memory log of batches (the simulated 'disk')."""

    def __init__(self) -> None:
        self._batches: list[BatchRecord] = []
        #: batch_index -> its most recent entry
        self._by_index: dict[int, BatchRecord] = {}

    def __len__(self) -> int:
        return len(self._batches)

    def append_batch(
        self, batch_index: int, transactions, columns: tuple | None = None
    ) -> BatchRecord:
        """Log a batch's inputs before execution.  A caller that already
        holds the batch as ``(tids, procedure names, params)`` columns
        passes them as ``columns``."""
        if columns is None:
            columns = (
                [t.tid for t in transactions],
                [t.procedure_name for t in transactions],
                [t.params for t in transactions],
            )
        entry = BatchRecord(batch_index, *columns)
        self._batches.append(entry)
        self._by_index[batch_index] = entry
        return entry

    def _entry(self, batch_index: int) -> BatchRecord:
        entry = self._by_index.get(batch_index)
        if entry is None:
            raise StorageError(f"batch {batch_index} was never logged")
        return entry

    def record_outcome(
        self, batch_index: int, committed: list[int], aborted: list[int]
    ) -> None:
        entry = self._entry(batch_index)
        entry.committed_tids = sorted(committed)
        entry.aborted_tids = sorted(aborted)

    def mark_failed(self, batch_index: int) -> None:
        """The engine raised on this batch and left the snapshot as it
        found it: recovery skips the entry."""
        self._entry(batch_index).failed = True

    def batches(self) -> list[BatchRecord]:
        return list(self._batches)
