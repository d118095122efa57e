"""One batch on its way through the engine's stage table.

:class:`Batch` is everything a batch owns between admission and its
:class:`~repro.core.assemble.BatchResult`: the lanes,
the scratch records the stages hand to each other, the verdicts, and —
as :class:`StageClocks` — what the stage runner measured at every stage
boundary.  A :class:`Stage` is one row of the table the runner walks
(:data:`repro.core.engine.STAGES`); a :class:`BatchObserver` is what an
overlay (``config.trace``, a test's fault injector)
implements to be called at those boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

import numpy as np

from repro.core.occ import ConflictFlags
from repro.errors import TransactionError
from repro.gpusim.kernel import KernelContext
from repro.storage.wal import encode_params
from repro.txn.batch_context import GroupLocals
from repro.txn.operations import OpFrame
from repro.txn.transaction import Transaction
from repro.xp import Rows

if TYPE_CHECKING:
    from repro.core.assemble import BatchResult
    from repro.core.engine import LTPGEngine

# Per-operation hardware cost shape (events per op in the kernel stages)
# and the per-transaction size of the two DMA legs.
READ_GLOBAL_READS = 3       # two index-probe loads + one data load
WRITE_GLOBAL_WRITES = 1     # append to the local write-set
WRITE_GLOBAL_READS = 2      # index probe
INSERT_GLOBAL_WRITES = 2    # key + payload append
OP_INSTRUCTIONS = 8         # decode, hash, bounds checks per op
REGISTER_INSTRUCTIONS = 4   # conflict-log hash computation per op
CHECK_INSTRUCTIONS = 6      # per-op verdict in the conflict kernel
APPLY_INSTRUCTIONS = 4      # per-cell install in the writeback kernel
TXN_PARAM_BYTES = 64        # host->device per transaction (parameters)
TXN_FLAG_BYTES = 8          # device->host per transaction (conflict flags)

#: Ledger keys of ``ArrayBackend.transfer_stats().snapshot()``.
Ledger = dict[str, int]


class Reservations(Rows):
    """One side's reservations, one row per reserved (lane, item):
    lane ``txn`` with TID ``tid`` reserved ``key`` of ``table`` — the
    conflict-log key (a row's conflict group, packed) on the read and
    write sides, the primary key being inserted on the insert side."""

    FIELDS = ("txn", "tid", "table", "key")
    __slots__ = FIELDS
    txn: np.ndarray
    tid: np.ndarray
    table: np.ndarray
    key: np.ndarray


class RangeReservations(Rows):
    """Range predicates (phantom protection): lane ``txn`` scanned
    keys ``lo..hi`` of ``table``."""

    FIELDS = ("txn", "tid", "table", "lo", "hi")
    __slots__ = FIELDS
    txn: np.ndarray
    tid: np.ndarray
    table: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class Stage(NamedTuple):
    """One row of the stage table."""

    name: str
    run: Callable[[LTPGEngine, Batch, KernelContext | None], None]
    #: Lanes of the stage's simulated kernel launch; ``None`` for a
    #: host stage (no kernel, no closing sync, ``ctx`` is ``None``).
    threads: Callable[[Batch], int] | None = None
    #: The stage writes the snapshot: once it starts, a failure can no
    #: longer be marked in the log as "nothing happened".
    installs: bool = False


class BatchObserver(Protocol):
    """Called by the stage runner, and by nothing else, at the stage
    boundaries of every non-empty batch.  An exception from any call
    fails the batch exactly as one from the stage itself would."""

    def stage_entered(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        """Before the stage body (inside its kernel launch, if any)."""

    def stage_leaving(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        """After the stage body, still inside its kernel launch."""

    def stage_synced(
        self, engine: LTPGEngine, batch: Batch, stage: Stage
    ) -> None:
        """After a kernel stage's closing device sync (never called
        for host stages)."""

    def batch_done(self, engine: LTPGEngine, batch: Batch) -> None:
        """Once per batch, after the last stage — or after the stage
        that failed, with ``batch.result`` still ``None`` — and before
        the conflict log forgets the batch."""


class StageClocks:
    """The runner's three clocks, stamped per stage name: simulated
    device time (kernel stages only: the launch, which carries its own
    start and duration), host seconds, and the array backend's
    transfer-ledger delta.  Outlives its batch as the engine's
    ``last_*`` properties."""

    def __init__(self, ledger: Ledger | None = None) -> None:
        self.launches: dict[str, KernelContext] = {}
        self.host_s: dict[str, float] = {}
        self.transfers: dict[str, Ledger] = {}
        #: the ledger when the batch began, and at the latest stamp
        self._start = self._ledger = ledger or {}

    def stamp(self, stage: str, host_s: float, ledger: Ledger) -> None:
        """The stage is over: its host seconds, and what the ledger
        moved since the previous stamp."""
        self.host_s[stage] = host_s
        before, self._ledger = self._ledger, ledger
        self.transfers[stage] = {k: ledger[k] - before[k] for k in ledger}

    def sim_ns(self) -> dict[str, float]:
        return {name: ctx.duration_ns for name, ctx in self.launches.items()}

    def total_transfers(self) -> Ledger:
        return {k: v - self._start[k] for k, v in self._ledger.items()}

    def phase_transfers(self) -> dict[str, Ledger]:
        """The ledger split by kernel stage, plus ``other`` for host
        stages' traffic (e.g. the full-sync fence in assemble)."""
        if not self.transfers:
            return {}
        out = {
            name: delta for name, delta in self.transfers.items()
            if name in self.launches
        }
        out["other"] = {
            key: value - sum(delta[key] for delta in out.values())
            for key, value in self.total_transfers().items()
        }
        return out


class Batch:
    """Scratch state shared by the stages of one batch.

    Building one is the route stage's walk over the lanes: TIDs,
    procedures and attempts become columns, each lane gets its new
    attempt, the frame and its lane in it; then the params are flattened
    once (``encode_params``).  A lane without a TID or a non-int64 param
    refuses the batch: nothing counted or logged, every lane as it was.
    """

    def __init__(
        self, index: int, transactions: list[Transaction], ledger: Ledger
    ) -> None:
        n = len(transactions)
        frame = self.frame = OpFrame(n)
        tids, codes, attempts, params = [0] * n, [0] * n, [0] * n, [()] * n
        code_of: dict[str, int] = {}
        #: lanes whose previous attempt's ops are still in its frame
        held: list[tuple[Transaction, OpFrame, int]] = []
        try:
            for lane, txn in enumerate(transactions):
                tid = tids[lane] = txn.tid
                if tid < 0:
                    raise TransactionError(
                        "batch holds a transaction without a TID; admit it "
                        "through a BatchScheduler (or assign_tids) before run_batch"
                    )
                codes[lane] = code_of.setdefault(txn.procedure_name, len(code_of))
                params[lane] = txn.params
                attempts[lane] = txn.attempts = txn.attempts + 1
                if txn._frame is not None:
                    held.append((txn, txn._frame, txn._lane))
                txn._frame = frame
                txn._lane = lane
            self.lengths, self.flat = encode_params(params)
        except TransactionError:
            for txn in transactions:
                if txn._frame is frame:
                    txn.attempts -= 1
                    txn._frame = None
            for txn, held_frame, held_lane in held:
                txn._frame, txn._lane = held_frame, held_lane
            raise
        #: The lanes as columns; procedure groups by first appearance.
        self.tids = np.array(tids, dtype=np.int64)
        self.attempts = np.array(attempts, dtype=np.int64)
        self.group_names = list(code_of)
        self.group_ids = np.array(codes, dtype=np.int64)
        self.index = index
        #: The batch in admission order: lane ``j`` runs
        #: ``transactions[j]``.
        self.transactions = transactions
        #: Logged, and the snapshot is still as the batch found it: a
        #: failure now is marked in the log and skipped by recovery.
        self.clean = False
        self.clocks = StageClocks(ledger)
        #: Simulated batch envelope and DMA time (the two copy legs).
        self.start_ns = self.end_ns = 0.0
        self.transfer_ns = self.rwset_ns = 0.0
        #: Batch-wide columnar locals, set by the execute stage (which
        #: also seals ``frame``, the ops); the write-back scatters them.
        self.batch_locals: GroupLocals
        self.ranges_by_tid: dict[int, list[tuple[int, int, int]]] = {}
        #: Lanes whose procedure rolled itself back (left by the execute
        #: stage; the conflict stage keeps them from committing).
        self.logic_mask = np.empty(0, dtype=bool)
        #: What each lane reserved, per side (set by the collector, read
        #: by every later stage).
        self.reads = self.writes = self.inserts = Reservations.empty()
        self.ranges = RangeReservations.empty()
        #: The conflict stage's verdicts and the commit rule's answer;
        #: write-back bytes for the copy-back leg; the assembled result.
        self.flags: ConflictFlags
        self.commit = np.empty(0, dtype=bool)
        self.rwset_bytes = 0
        self.result: BatchResult | None = None

    @property
    def total_ops(self) -> int:
        return self.reads.size + self.writes.size + self.inserts.size
