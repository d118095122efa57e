"""Transactions and their lifecycle.

A transaction is a named stored procedure plus integer parameters plus a
TID.  TIDs are assigned once, on first admission to a batch, and are
*preserved across re-executions* — the paper relies on this for
determinism ("If re-execution is necessary, the system pulls the
transactions from the log, while preserving their original TIDs").
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from repro.txn.operations import OpColumns, OpFrame, OpRecord


class TxnStatus(enum.Enum):
    PENDING = "pending"
    EXECUTED = "executed"
    COMMITTED = "committed"
    ABORTED = "aborted"  # concurrency-control abort: will be re-executed
    LOGIC_ABORTED = "logic_aborted"  # procedure rolled itself back: final


@dataclass
class Transaction:
    """One transaction instance flowing through an engine.

    Every attribute an instance will ever carry is a field assigned in
    ``__init__``: engines stamp batches of these in tight loops, and an
    attribute first stored later would move the instance off CPython's
    compact attribute layout.
    """

    procedure_name: str
    params: tuple
    tid: int = -1
    status: TxnStatus = TxnStatus.PENDING
    #: How many batches this transaction has been through (1 = first try).
    attempts: int = 0
    #: Backing store of :attr:`ops` while no frame is attached; until
    #: something stores ops, every instance shares the one empty tuple.
    _ops: OpColumns | Sequence[OpRecord] = field(default=(), compare=False)
    #: Why the last conflict-detection pass aborted it (for diagnostics):
    #: one of "", "waw", "raw", "war", "raw+war", "logic".
    abort_reason: str = ""
    #: The batch-wide :class:`~repro.txn.operations.OpFrame` holding the
    #: latest attempt's ops, and this transaction's lane in it (``None``
    #: when the ops are held in ``_ops``).
    _frame: OpFrame | None = field(default=None, compare=False)
    _lane: int = field(default=0, compare=False)

    @property
    def ops(self) -> OpColumns | Sequence[OpRecord]:
        """Operation stream from the most recent execution — an
        :class:`OpColumns` buffer after running under an engine (its
        indexing yields :class:`OpRecord` views), or a plain sequence
        (empty before the first execution).

        After a run under ``LTPGEngine`` the ops live in the batch's
        frame; the first read copies this lane's rows out of the
        frame's lane-major layout (built by the first read of any of
        the batch's lanes) and lets go of the frame, later reads return
        the same buffer.
        """
        frame = self._frame
        if frame is None:
            return self._ops
        ops = self._ops = frame.ops_of(self._lane)
        self._frame = None
        return ops

    @ops.setter
    def ops(self, value: OpColumns | Sequence[OpRecord]) -> None:
        self._ops = value
        self._frame = None

    def reset_for_execution(self) -> None:
        """Clear per-attempt state before (re-)executing."""
        self._ops = ()
        self._frame = None
        self.status = TxnStatus.PENDING
        self.abort_reason = ""
        self.attempts += 1

    @property
    def is_final(self) -> bool:
        return self.status in (TxnStatus.COMMITTED, TxnStatus.LOGIC_ABORTED)

    def __repr__(self) -> str:  # compact, for test failure messages
        return (
            f"Txn(tid={self.tid}, {self.procedure_name}, "
            f"{self.status.value}, attempts={self.attempts})"
        )


_tid_of = attrgetter("tid")
_procedure_of = attrgetter("procedure_name")
_params_of = attrgetter("params")


def batch_columns(
    transactions: list[Transaction],
) -> tuple[list[int], list[str], list[tuple]]:
    """A batch as three aligned columns ``(tids, procedure names,
    params)`` — one attribute pass each, for consumers that would
    otherwise each walk the transactions themselves."""
    return (
        list(map(_tid_of, transactions)),
        list(map(_procedure_of, transactions)),
        list(map(_params_of, transactions)),
    )


def assign_tids(transactions: list[Transaction], start: int) -> int:
    """Assign consecutive TIDs to transactions that lack one; returns the
    next unused TID.  Already-assigned TIDs (re-executions) are kept."""
    next_tid = start
    for txn in transactions:
        if txn.tid < 0:
            txn.tid = next_tid
            next_tid += 1
    return next_tid


def begin_framed_attempt(transactions: list[Transaction], frame: OpFrame) -> None:
    """:meth:`Transaction.reset_for_execution` for a whole batch whose
    ops will live in ``frame`` (lane = batch position).

    Every lane is stamped ``EXECUTED`` — what all but a few end the
    execute phase as; the engine overwrites the lanes that differ.
    """
    executed = TxnStatus.EXECUTED
    for lane, txn in enumerate(transactions):
        txn._frame = frame
        txn._lane = lane
        txn.status = executed
        txn.abort_reason = ""
        txn.attempts += 1
