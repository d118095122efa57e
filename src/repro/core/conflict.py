"""The conflict stage: each lane's TID against the minima the execute
stage registered (:mod:`repro.core.conflict_log`)."""

from __future__ import annotations

import numpy as np

from repro.core.batch import CHECK_INSTRUCTIONS, Batch
from repro.core.occ import ConflictFlags, commit_mask


def detect(engine, batch: Batch, ctx) -> None:
    """WAW/RAW/WAR verdicts per transaction (``batch.flags``), then the
    deterministic commit rule (``batch.commit``)."""
    n = len(batch.transactions)
    log = engine.conflict_log
    waw = np.zeros(n, dtype=bool)
    raw = np.zeros(n, dtype=bool)
    war = np.zeros(n, dtype=bool)

    if batch.write_keys.size:
        min_w = log.min_write(batch.write_keys)
        min_r = log.min_read(batch.write_keys)
        waw_ops = min_w < batch.write_tid_arr
        war_ops = min_r < batch.write_tid_arr
        waw |= np.bincount(
            batch.write_txn_arr, weights=waw_ops, minlength=n
        ).astype(bool)
        war |= np.bincount(
            batch.write_txn_arr, weights=war_ops, minlength=n
        ).astype(bool)
    if batch.read_keys.size:
        raw_ops = log.min_write(batch.read_keys) < batch.read_tid_arr
        raw |= np.bincount(
            batch.read_txn_arr, weights=raw_ops, minlength=n
        ).astype(bool)
    if batch.ins_key_arr.size:
        winners = log.insert_winners(batch.ins_table_arr, batch.ins_key_arr)
        ins_waw = winners < batch.ins_tid_arr
        waw |= np.bincount(
            batch.ins_txn_arr, weights=ins_waw, minlength=n
        ).astype(bool)

    # Phantom protection for range reads: an earlier insert
    # reservation inside the predicate is a RAW on the predicate
    # (the reader's snapshot scan missed a row the serial order
    # would have shown); a *later* insert into an earlier reader's
    # predicate is the matching WAR (reordering the reader past the
    # inserter would un-miss it).
    if batch.range_tid_arr.size and batch.ins_key_arr.size:
        ctx.add_global_reads(2 * batch.range_tid_arr.size)
        for table_id in np.unique(batch.range_table_arr):
            ins_mask = batch.ins_table_arr == table_id
            if not ins_mask.any():
                continue
            order = np.argsort(batch.ins_key_arr[ins_mask], kind="stable")
            ikeys = batch.ins_key_arr[ins_mask][order]
            itids = batch.ins_tid_arr[ins_mask][order]
            itxns = batch.ins_txn_arr[ins_mask][order]
            rng_mask = batch.range_table_arr == table_id
            for lo, hi, rtid, rtxn in zip(
                batch.range_lo_arr[rng_mask],
                batch.range_hi_arr[rng_mask],
                batch.range_tid_arr[rng_mask],
                batch.range_txn_arr[rng_mask],
            ):
                a = np.searchsorted(ikeys, lo, side="left")
                b = np.searchsorted(ikeys, hi, side="right")
                if a >= b:
                    continue
                window = itids[a:b]
                if int(window.min()) < rtid:
                    raw[rtxn] = True
                later = window > rtid
                if later.any():
                    war[itxns[a:b][later]] = True

    # Cost: every op reads its own slot; additionally each *distinct*
    # large bucket is swept once (all s_u sub-slots) to find the
    # minimum — charging the sweep per op would double-count it.
    bucket_reads = (
        int(batch.read_keys.size + batch.write_keys.size)
        + int(batch.ins_key_arr.size)
    )
    touched = np.concatenate((batch.read_keys, batch.write_keys))
    touched_tables = np.concatenate(
        (batch.read_table_arr, batch.write_table_arr)
    )
    if touched.size:
        uniq_keys, first = np.unique(touched, return_index=True)
        for table_id, s_u_count in zip(
            *np.unique(touched_tables[first], return_counts=True)
        ):
            s_u = log.bucket_size(int(table_id))
            if s_u > 1:
                bucket_reads += int(s_u_count) * (s_u - 1)
    ctx.add_global_reads(bucket_reads)
    ctx.add_instructions(CHECK_INSTRUCTIONS * max(1, batch.total_ops))

    # Logic aborts never commit, whatever their flags say.
    waw |= batch.logic_mask
    batch.flags = ConflictFlags(waw=waw, raw=raw, war=war)
    batch.commit = commit_mask(batch.flags, engine.config.logical_reordering)

