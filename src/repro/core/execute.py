"""The execute stage: run every lane's procedure against the snapshot,
buffer its effects, collect the batch's ops and register its TIDs
(:mod:`repro.core.collect`)."""

from __future__ import annotations

import numpy as np

from repro.core.batch import Batch
from repro.core.collect import collect_columnar, register_batch
from repro.errors import KeyNotFound, TransactionAborted
from repro.txn.batch_context import BatchedContext, GroupLocals, ParamColumns
from repro.txn.context import BufferedContext


def execute(engine, batch: Batch, ctx) -> None:
    """Run procedures, buffer effects, register TIDs."""
    run_procedures(engine, batch)
    # Collect reservations + per-op costs, skipping logic aborts for
    # registration but keeping their cost (the lanes did the work).
    collect_columnar(engine, batch, ctx)
    register_batch(engine, batch, ctx)


def run_procedures(engine, batch: Batch) -> None:
    """Group-by-procedure execution of one batch.

    Each group with a registered ``BatchProcedure`` twin runs as one
    vectorized call over a :class:`BatchedContext`; twin-less groups
    (every group under ``batched_exec=False``) and the lanes a twin
    sends to fallback run one at a time through their scalar procedure,
    so third-party procedures keep working.  Either way a lane's ops go
    into the batch's :class:`OpFrame` (``batch.frame``) in emission
    order — laid out lane-major only if somebody reads a transaction's
    ``ops`` — and its inserts into ``batch.batch_locals``; the collector
    resolves every lane's writes and adds there from the frame, so a
    twin-less group is one more group of the same bulk.
    """
    n = len(batch.transactions)
    frame = batch.frame
    # Procedure groups in first-appearance order, as lane indices; a
    # group's params are a row gather of the batch's command block.
    names, lengths = batch.group_names, batch.lengths
    starts = np.cumsum(lengths) - lengths
    members = (np.flatnonzero(batch.group_ids == k) for k in range(len(names)))
    locals_ = batch.batch_locals = GroupLocals(n)
    use_twins = engine.config.batched_exec
    for name, idxs in zip(names, members):
        proc = engine._resolve_procedure(name)
        batched = engine.procedures.get_batched(name) if use_twins else None
        if batched is None:
            for i in idxs.tolist():
                _scalar_lane(engine, batch, proc, i)
            continue
        params = ParamColumns(batch.flat, starts[idxs], lengths[idxs], engine._backend)
        bctx = BatchedContext(engine.database, params, residency=engine._residency)
        batched(bctx, params)
        lane, cols, inserts, payloads, ranges_by_lane = bctx.finalize()
        # the op columns go to the frame whole, as emitted, and only the
        # lanes that differ from the rest are visited: logic aborts get
        # their status, range readers their predicates, fallback lanes
        # a scalar re-run
        frame.add_group(idxs, lane, cols, bctx.aborted)
        locals_.add_inserts(idxs, inserts, payloads)
        for li, lane_ranges in ranges_by_lane.items():
            batch.ranges_by_tid[int(batch.tids[idxs[li]])] = lane_ranges
        for i in idxs[bctx.fallback].tolist():
            _scalar_lane(engine, batch, proc, i)
    locals_.seal()
    frame.seal()
    batch.logic_mask = frame.logic


def _scalar_lane(engine, batch: Batch, proc, i: int) -> None:
    """One lane through its scalar procedure: recorded ops into the
    frame, buffered inserts into the batch's columnar locals (its
    writes and adds are read back off its ops, like a twin lane's)."""
    txn = batch.transactions[i]
    local_ctx = BufferedContext(engine.database)
    try:
        proc(local_ctx, *txn.params)
    except (TransactionAborted, KeyNotFound):
        # Procedure rolled back, or a client-pre-resolved key
        # missed (e.g. Delivery naming an order whose NewOrder
        # aborted): a deterministic logic abort either way.  The
        # lane keeps the ops it recorded and contributes no effects.
        batch.frame.add_scalar(i, local_ctx.ops, True)
        return
    batch.frame.add_scalar(i, local_ctx.ops, False)
    batch.batch_locals.add_scalar_inserts(i, local_ctx.local.inserts)
    if local_ctx.ranges:
        batch.ranges_by_tid[txn.tid] = local_ctx.ranges
