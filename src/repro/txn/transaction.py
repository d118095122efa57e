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

from repro.txn.operations import OpColumns, OpFrame, OpRecord


class TxnStatus(enum.Enum):
    PENDING = "pending"
    EXECUTED = "executed"
    COMMITTED = "committed"
    ABORTED = "aborted"  # concurrency-control abort: will be re-executed
    LOGIC_ABORTED = "logic_aborted"  # procedure rolled itself back: final


class Transaction:
    """One transaction instance flowing through an engine.

    A ``__slots__`` class whose ``__init__`` stores every slot once:
    engines stamp batches of these in tight loops, and the serve layer
    builds one per request, so the instance stays a fixed-size record.
    Equality is identity: a transaction is one lifecycle, not a value.
    """

    __slots__ = (
        "procedure_name", "params", "tid", "status", "attempts",
        "_ops", "abort_reason", "_frame", "_lane",
    )

    def __init__(
        self,
        procedure_name: str,
        params: tuple,
        tid: int = -1,
        status: TxnStatus = TxnStatus.PENDING,
        attempts: int = 0,
        abort_reason: str = "",
    ) -> None:
        self.procedure_name = procedure_name
        self.params = params
        self.tid = tid
        self.status = status
        #: How many batches this transaction has been through (1 = first try).
        self.attempts = attempts
        #: Backing store of :attr:`ops` while no frame is attached; until
        #: something stores ops, every instance shares the one empty tuple.
        self._ops: OpColumns | Sequence[OpRecord] = ()
        #: Why the last conflict-detection pass aborted it (for diagnostics):
        #: one of "", "waw", "raw", "war", "raw+war", "logic".
        self.abort_reason = abort_reason
        #: The batch-wide :class:`~repro.txn.operations.OpFrame` holding the
        #: latest attempt's ops, and this transaction's lane in it (``None``
        #: when the ops are held in ``_ops``).
        self._frame: OpFrame | None = None
        self._lane = 0

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


def assign_tids(transactions: list[Transaction], start: int) -> int:
    """Assign consecutive TIDs to transactions that lack one; returns the
    next unused TID.  Already-assigned TIDs (re-executions) are kept."""
    next_tid = start
    for txn in transactions:
        if txn.tid < 0:
            txn.tid = next_tid
            next_tid += 1
    return next_tid

