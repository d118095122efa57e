"""The assemble stage: results come back over the d2h leg and the
batch's verdicts become a :class:`BatchResult`."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.batch import TXN_FLAG_BYTES, Batch, Reservations
from repro.core.memory_modes import transfer_latency_factor
from repro.core.occ import abort_reason, logical_order
from repro.core.stats import BatchStats
from repro.gpusim.occupancy import KernelResources, occupancy
from repro.gpusim.stream import Event
from repro.txn.transaction import Transaction, TxnStatus
from repro.xp import sorted_runs
from repro.xp.rows import run_ends

#: A lane's verdict: ``waw + 2 * raw + 4 * war`` for a concurrency-control
#: abort, then committed and logic-aborted; its status and abort reason.
_COMMITTED, _LOGIC = 8, 9
_STATUSES = (TxnStatus.ABORTED,) * 8 + (TxnStatus.COMMITTED, TxnStatus.LOGIC_ABORTED)
_REASONS = tuple(
    abort_reason(bool(c & 1), bool(c & 2), bool(c & 4)) for c in range(8)
) + ("", "logic")


class _WitnessColumns(NamedTuple):
    """What :meth:`BatchResult.serial_order` is built from: the batch's
    reservations as the phases left them (one row per reserved key,
    with the lane and TID that reserved it) and which lanes committed.
    Every array is allocated by the batch that produced it and never
    written again, so a result may be asked for its order however many
    batches later."""

    committed: np.ndarray  # bool per lane
    reads: Reservations
    writes: Reservations


@dataclass
class BatchResult:
    """Everything one batch produced."""

    stats: BatchStats
    committed: list[Transaction]
    aborted: list[Transaction]
    logic_aborted: list[Transaction]
    #: Inputs of the serial-order witness; the per-transaction key sets
    #: are only built if :meth:`serial_order` is called.
    _witness: _WitnessColumns | None = None
    _serial_order: list[int] | None = field(default=None, init=False, repr=False)

    def serial_order(self) -> list[int]:
        """TIDs of committed transactions in an equivalent serial order
        (computed on the first call)."""
        if self._serial_order is None:
            reads: dict[int, set] = {}
            writes: dict[int, set] = {}
            w = self._witness
            if w is not None:
                reads = _grouped_key_sets(w.reads, w.committed)
                writes = _grouped_key_sets(w.writes, w.committed)
            none: frozenset = frozenset()
            self._serial_order = logical_order(
                [
                    (t.tid, reads.get(t.tid, none), writes.get(t.tid, none))
                    for t in self.committed
                ]
            )
            self._witness = None
        return list(self._serial_order)


def assemble(engine, batch: Batch, ctx) -> None:
    """Ship the read/write sets and conflict flags back, then build
    ``batch.result`` — its lists in admission (lane) order."""
    _ship_back(engine, batch)
    # One verdict per lane: one walk stamps and files each transaction,
    # and the counters are counts over the route stage's columns.
    transactions = batch.transactions
    flags, commit, logic = batch.flags, batch.commit, batch.logic_mask
    verdict = np.where(
        commit, _COMMITTED,
        np.where(logic, _LOGIC, flags.waw + 2 * flags.raw + 4 * flags.war),
    )
    committed: list[Transaction] = []
    aborted: list[Transaction] = []
    logic_aborted: list[Transaction] = []
    file_as = (aborted.append,) * 8 + (committed.append, logic_aborted.append)
    for txn, v in zip(transactions, verdict.tolist()):
        txn.status = _STATUSES[v]
        txn.abort_reason = _REASONS[v]
        file_as[v](txn)
    counts = np.bincount(verdict, minlength=len(_REASONS)).tolist()
    # Logic aborts first, then each concurrency-control reason by code.
    abort_reasons = Counter(
        {_REASONS[v]: counts[v] for v in (_LOGIC, *range(8)) if counts[v]}
    )
    launch = batch.clocks.launches["execute"]
    stats = BatchStats(
        batch_index=batch.index,
        num_txns=len(transactions),
        committed=len(committed),
        aborted=len(aborted),
        logic_aborted=len(logic_aborted),
        latency_ns=batch.end_ns - batch.start_ns,
        transfer_ns=batch.transfer_ns,
        rwset_ns=batch.rwset_ns,
        phase_ns=batch.clocks.sim_ns(),
        committed_by_proc=_first_seen_counts(batch.group_ids[commit], batch.group_names),
        total_by_proc=_first_seen_counts(batch.group_ids, batch.group_names),
        abort_reasons=abort_reasons,
        commit_attempts=_first_seen_counts(batch.attempts[commit]),
        registered_reads=batch.reads.size,
        registered_writes=batch.writes.size,
        max_atomic_chain=launch.stats.atomic_max_chain,
        atomic_ops=launch.stats.atomic_ops,
        atomic_serialized=launch.stats.atomic_serialized,
        divergent_branches=launch.stats.divergent_branches,
        occupancy=occupancy(
            KernelResources(threads_per_block=launch.geometry.block)
        ).occupancy,
    )
    batch.result = BatchResult(
        stats=stats,
        committed=committed,
        aborted=aborted,
        logic_aborted=logic_aborted,
        # lane-indexed like the reservations; the witness is keyed by TID
        _witness=_WitnessColumns(commit, batch.reads, batch.writes),
    )


def _first_seen_counts(values: np.ndarray, labels=None) -> Counter:
    """``Counter`` of ``values`` (small non-negative ints; ``labels[v]``
    when given), its keys in order of first appearance — what counting
    the lanes one by one would build."""
    if not values.size:
        return Counter()
    counts = np.bincount(values)
    first = np.full(counts.size, values.size)
    np.minimum.at(first, values, np.arange(values.size))
    seen = np.argsort(first)[: np.count_nonzero(counts)].tolist()
    return Counter({(labels[v] if labels else v): int(counts[v]) for v in seen})


def _ship_back(engine, batch: Batch) -> None:
    """device -> host: read/write sets + conflict flags (the d2h leg),
    closing the batch's simulated envelope."""
    device = engine.device
    compute = device.stream(engine.compute_stream)
    d2h = device.stream(engine.d2h_stream)
    d2h.wait_event(compute.record_event(Event("compute_done")))
    d2h_bytes = batch.rwset_bytes + len(batch.transactions) * TXN_FLAG_BYTES
    batch.rwset_ns = device.copy(
        int(d2h_bytes * transfer_latency_factor(engine.memory_plan)),
        "d2h", name="rwsets", stream=engine.d2h_stream,
    )
    batch.transfer_ns += batch.rwset_ns
    interval = engine.config.full_sync_interval
    if interval and (batch.index + 1) % interval == 0:
        # Synchronization method 1 (§IV): ship the whole snapshot
        # back to the CPU on the user-defined interval.
        batch.transfer_ns += device.copy(
            engine.database.nbytes, "d2h", name="full_sync",
            stream=engine.d2h_stream,
        )
        if engine._residency is not None:
            # Under residency the interval sync is a *real* fence:
            # every dirty resident column ships back to host.
            engine._residency.sync_all_to_host()
    batch.end_ns = d2h.time_ns


def _grouped_key_sets(res: Reservations, committed: np.ndarray) -> dict[int, set]:
    """{tid -> set(conflict keys)} over committed transactions, one
    set per run of the reservations grouped by TID."""
    mask = committed[res.txn]
    tids = res.tid[mask]
    order, starts = sorted_runs(tids)
    keys = res.key[mask][order]
    return {
        tid: set(keys[s:e].tolist())
        for tid, s, e in zip(
            tids[order[starts]].tolist(),
            starts.tolist(),
            run_ends(starts, order.size).tolist(),
        )
    }
