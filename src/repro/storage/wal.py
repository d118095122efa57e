"""Batch logging for determinism and recovery.

The paper: "The CPU also records each batch of transactions on the hard
drive as logs.  LTPG guarantees consistent transaction outcomes by
assigning a unique TID to each transaction in a batch, logging it for
reference.  If re-execution is necessary, the system pulls the
transactions from the log, while preserving their original TIDs."

:class:`BatchLog` records, per batch, every transaction's (tid,
procedure, params) plus the commit decisions, and
:func:`repro.storage.recovery.recover` replays it onto a snapshot.  An
entry is the batch's command block: int64 columns that
:func:`encode_params` flattened once as the batch was built (the twins'
``ParamColumns`` are row gathers of it), so a param is an int in int64
range.  Rows (:class:`LogRecord`) are decoded only on request, so an
append costs a constant number of garbage-collector-tracked objects
per batch however many lanes it has.  The block is the log's only
serialized form: command logging needs nothing recovery does not read.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from struct import Struct
from struct import error as StructError
from typing import NamedTuple

import numpy as np

from repro.errors import StorageError, TransactionError


class LogRecord(NamedTuple):
    """One transaction as it entered a batch."""

    tid: int
    procedure: str
    params: tuple


#: int64 packers for a row of up to 63 params (one request's), built once
_ROWS = tuple(Struct(f"{n}q") for n in range(64))


def int64_params(values: Iterable) -> bytes:
    """``values`` packed as native int64s.  The one rule for a param: an
    int in int64 range (``bool`` and ``np.int64`` pass); anything else
    raises :class:`TransactionError`."""
    try:
        values = tuple(values)
        n = len(values)
        return (_ROWS[n] if n < len(_ROWS) else Struct(f"{n}q")).pack(*values)
    except (StructError, TypeError) as exc:
        raise TransactionError(f"params must be ints in int64 range: {exc}") from None


def encode_params(params: list) -> tuple[np.ndarray, np.ndarray]:
    """Every lane's params as read-only ``(lengths, flat)`` int64 columns,
    under :func:`int64_params`'s rule."""
    lengths = int64_params(map(len, params))
    flat = int64_params(chain.from_iterable(params))
    return np.frombuffer(lengths, np.int64), np.frombuffer(flat, np.int64)


class BatchRecord:
    """The log entry for one processed batch.

    The inputs are read-only int64 columns — ``tids``, ``group_ids``
    (into ``group_names``, an object array: no tracked container), the
    params' ``lengths`` and ``flat`` — that :attr:`records` decodes.

    ``committed_tids`` / ``aborted_tids``, sorted read-only int64 columns,
    stay ``None`` until :meth:`BatchLog.record_outcome` ran: "no outcome recorded" and
    "recorded, nothing committed" are different facts to recovery.
    ``failed`` is the third fact: the engine raised on this batch
    before touching the snapshot (:meth:`BatchLog.mark_failed`), so it
    has no outcome and must not be replayed.
    """

    __slots__ = (
        "batch_index", "tids", "group_ids", "group_names", "lengths", "flat",
        "committed_tids", "aborted_tids", "failed",
    )

    def __init__(
        self, batch_index: int, tids, group_ids, group_names, lengths, flat
    ) -> None:
        self.batch_index = batch_index
        block = [np.asarray(c, np.int64) for c in (tids, group_ids, lengths, flat)]
        for column in block:
            column.flags.writeable = False
        self.tids, self.group_ids, self.lengths, self.flat = block
        self.group_names = np.array(group_names, dtype=object)
        self.committed_tids: np.ndarray | None = None
        self.aborted_tids: np.ndarray | None = None
        self.failed = False

    @property
    def records(self) -> list[LogRecord]:
        """The batch's transactions in batch order, decoded on demand."""
        flat, ends = self.flat.tolist(), np.cumsum(self.lengths).tolist()
        params = [tuple(flat[e - k:e]) for e, k in zip(ends, self.lengths.tolist())]
        names = self.group_names[self.group_ids].tolist()
        return list(map(LogRecord._make, zip(self.tids.tolist(), names, params)))


def _sorted_column(tids) -> np.ndarray:
    column = np.sort(np.asarray(tids, np.int64))
    column.flags.writeable = False
    return column


class BatchLog:
    """An append-only in-memory log of batches (the simulated 'disk')."""

    def __init__(self) -> None:
        self._batches: list[BatchRecord] = []
        #: batch_index -> its most recent entry
        self._by_index: dict[int, BatchRecord] = {}

    def __len__(self) -> int:
        return len(self._batches)

    def append_batch(
        self, batch_index: int, transactions, block: tuple | None = None
    ) -> BatchRecord:
        """Log a batch's inputs before execution: the ``block`` the route
        stage built (``BatchRecord``'s five columns), or, without one,
        the transactions encoded through the same :func:`encode_params`."""
        if block is None:
            code_of: dict[str, int] = {}
            codes = [
                code_of.setdefault(t.procedure_name, len(code_of)) for t in transactions
            ]
            params = encode_params([t.params for t in transactions])
            block = ([t.tid for t in transactions], codes, list(code_of), *params)
        entry = BatchRecord(batch_index, *block)
        self._batches.append(entry)
        self._by_index[batch_index] = entry
        return entry

    def _entry(self, batch_index: int) -> BatchRecord:
        entry = self._by_index.get(batch_index)
        if entry is None:
            raise StorageError(f"batch {batch_index} was never logged")
        return entry

    def record_outcome(self, batch_index: int, committed, aborted) -> None:
        """The batch's committed and concurrency-aborted TIDs (any order)."""
        entry = self._entry(batch_index)
        entry.committed_tids, entry.aborted_tids = map(_sorted_column, (committed, aborted))

    def mark_failed(self, batch_index: int) -> None:
        """The engine raised on this batch and left the snapshot as it
        found it: recovery skips the entry."""
        self._entry(batch_index).failed = True

    def batches(self) -> list[BatchRecord]:
        return list(self._batches)
