"""The conflict stage: each lane's TID against the minima the execute
stage registered (:mod:`repro.core.conflict_log`)."""

from __future__ import annotations

import numpy as np

from repro.core.batch import CHECK_INSTRUCTIONS, Batch
from repro.core.occ import ConflictFlags, commit_mask
from repro.xp.rows import run_starts


def detect(engine, batch: Batch, ctx) -> None:
    """WAW/RAW/WAR verdicts per transaction (``batch.flags``), then the
    deterministic commit rule (``batch.commit``)."""
    n = len(batch.transactions)
    log = engine.conflict_log
    reads, writes, inserts, ranges = (
        batch.reads, batch.writes, batch.inserts, batch.ranges
    )
    waw = np.zeros(n, dtype=bool)
    raw = np.zeros(n, dtype=bool)
    war = np.zeros(n, dtype=bool)

    def flag(verdict: np.ndarray, res, earlier: np.ndarray) -> None:
        """A lane is flagged when any of its reservations ``res`` lost
        to an earlier TID (one boolean scatter, whatever the hazard)."""
        verdict[res.txn[earlier < res.tid]] = True

    if writes.size:
        flag(waw, writes, log.min_write(writes.key))
        flag(war, writes, log.min_read(writes.key))
    if reads.size:
        flag(raw, reads, log.min_write(reads.key))
    if inserts.size:
        flag(waw, inserts, log.insert_winners(inserts.table, inserts.key))

    # Phantom protection for range reads: an earlier insert
    # reservation inside the predicate is a RAW on the predicate
    # (the reader's snapshot scan missed a row the serial order
    # would have shown); a *later* insert into an earlier reader's
    # predicate is the matching WAR (reordering the reader past the
    # inserter would un-miss it).
    if ranges.size and inserts.size:
        ctx.add_global_reads(2 * ranges.size)
        for table_id in np.unique(ranges.table):
            ins = inserts.take(inserts.table == table_id)
            if not ins.size:
                continue
            ins = ins.take(np.argsort(ins.key, kind="stable"))
            rng = ranges.take(ranges.table == table_id)
            for lo, hi, rtid, rtxn in zip(rng.lo, rng.hi, rng.tid, rng.txn):
                a = np.searchsorted(ins.key, lo, side="left")
                b = np.searchsorted(ins.key, hi, side="right")
                if a >= b:
                    continue
                window = ins.tid[a:b]
                if int(window.min()) < rtid:
                    raw[rtxn] = True
                later = window > rtid
                if later.any():
                    war[ins.txn[a:b][later]] = True

    # Cost: every op reads its own slot; additionally each *distinct*
    # large bucket is swept once (all s_u sub-slots) to find the
    # minimum — charging the sweep per op would double-count it.  Keys
    # of different tables never collide, so the distinct keys are
    # counted per expanded table: each side's reservations arrive in
    # key order, so its distinct keys are its runs, and the keys both
    # sides hold are found by binary search instead of a sort.
    bucket_reads = batch.total_ops
    for table_id in range(engine.database.num_tables):
        s_u = log.bucket_size(table_id)
        if s_u > 1:
            r = reads.key[reads.table == table_id]
            w = writes.key[writes.table == table_id]
            r, w = r[run_starts(r)], w[run_starts(w)]
            at = np.minimum(np.searchsorted(r, w), max(r.size - 1, 0))
            shared = np.count_nonzero(r[at] == w) if r.size else 0
            bucket_reads += (r.size + w.size - shared) * (s_u - 1)
    ctx.add_global_reads(bucket_reads)
    ctx.add_instructions(CHECK_INSTRUCTIONS * max(1, batch.total_ops))

    # Logic aborts never commit, whatever their flags say.
    waw |= batch.logic_mask
    batch.flags = ConflictFlags(waw=waw, raw=raw, war=war)
    batch.commit = commit_mask(batch.flags, engine.config.logical_reordering)

