"""Vectorized twins of the TPC-C stored procedures.

Each twin replays its scalar procedure's exact op-emission order with
NumPy over a :class:`~repro.txn.batch_context.BatchedContext`, so every
lane's per-op sequence lines up with a per-transaction execution.
NewOrder's item loop is one pass over every (lane, item slot) pair:
each key is resolved once, each pair gets the number of loop steps the
scalar procedure reaches in that slot, and
:meth:`~repro.txn.batch_context.BatchedContext.emit_steps` lays the
steps out pair-major — so its cost does not grow with the longest
order in the group.  Delivery still walks its orders one position at a
time.

Lanes that would need a read-your-own-writes overlay fall back to the
scalar procedure (the engine re-runs them one at a time):

* NewOrder lanes ordering the same item twice (the second stock read
  must see the first decrement);
* Delivery lanes whose pre-resolved orders share a customer (the second
  balance read must see the first credit).

Both are duplicate draws by the generator — rare at real scales — so
nearly every lane stays on the vectorized path.
"""

from __future__ import annotations

import functools
from itertools import repeat

import numpy as np

from repro.txn.batch_context import BatchedContext, ParamColumns
from repro.txn.procedures import ProcedureRegistry
from repro.workloads.tpcc.schema import (
    DISTRICTS_PER_WAREHOUSE,
    MAX_ORDER_LINES,
    TpccScale,
)
from repro.xp import ArrayBackend


def _lane_major_offsets(xp: ArrayBackend, counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` as one flat array."""
    total = int(counts.sum())
    starts = xp.cumsum(counts) - counts
    return xp.arange(total, dtype=np.int64) - xp.repeat(starts, counts)


def _segment_sums(
    xp: ArrayBackend, counts: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Per-lane sums of lane-major ``values``."""
    sums = xp.zeros(counts.size, dtype=np.int64)
    xp.scatter_add(
        sums, xp.repeat(xp.arange(counts.size, dtype=np.int64), counts), values
    )
    return sums


def _rows_of_keys(bctx: BatchedContext, table: str, keys: np.ndarray) -> np.ndarray:
    """Row slot per key, ``-1`` where absent; aborts nothing."""
    _, t = bctx.resolve(table)
    return t.rows_of_keys(keys, bctx.xp)


def _dup_in_rows(
    xp: ArrayBackend, matrix: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Per-lane: does any value repeat among the valid cells?"""
    if matrix.shape[1] < 2:
        return np.zeros(matrix.shape[0], dtype=bool)
    # invalid cells get distinct negative sentinels so they never match
    probe = xp.where(valid, matrix, -1 - xp.arange(matrix.shape[1], dtype=np.int64))
    srt = xp.sort(probe, axis=1)
    return (srt[:, 1:] == srt[:, :-1]).any(axis=1)


# Twins live at module level, bound to their scale via functools.partial
# at registration.


def _neworder_b(scale: TpccScale, bctx: BatchedContext, params: ParamColumns):
    xp = bctx.xp
    lanes = bctx.all_lanes()
    w = params.column(0)
    d = params.column(1)
    c_key = params.column(2)
    o_id = params.column(3)
    rollback = params.column(4)
    n_items = (params.lengths - 5) // 2
    # item slot j of every lane (views of the parameter matrix)
    items = params.padded[:, 5::2]
    qtys = params.padded[:, 6::2]
    valid = xp.arange(items.shape[1], dtype=np.int64) < n_items[:, None]
    # a repeated item id needs the second stock read to see the first
    # decrement — scalar territory
    bctx.fall_back(lanes[_dup_in_rows(xp, items, valid)])

    start = bctx.active_lanes()
    crows, cf = bctx.rows_for_keys("customer", start, c_key[start])
    cur = start[cf]
    bctx.read_rows("customer", cur, crows[cf], "c_discount")
    d_key = w * DISTRICTS_PER_WAREHOUSE + d

    # Every (lane, item slot) pair at once, lane-major.  Each key is
    # resolved once, and each pair gets the depth the scalar loop
    # reaches in that slot: 0 item missing, 1 stock missing, 5
    # order_line key taken, 6 done.  A lane stops at its first short
    # slot, so the slots after it reach nothing, and the lane aborts.
    counts = n_items[cur]
    lane = xp.repeat(cur, counts)
    slot = _lane_major_offsets(xp, counts)
    item, qty = items[lane, slot], qtys[lane, slot]
    irows = _rows_of_keys(bctx, "item", item)
    srows = _rows_of_keys(bctx, "stock", w[lane] * scale.num_items + item)
    ol_key = o_id[lane] * MAX_ORDER_LINES + slot
    taken = _rows_of_keys(bctx, "order_line", ol_key) >= 0
    depth = xp.where(irows < 0, 0, xp.where(srows < 0, 1, xp.where(taken, 5, 6)))
    short = depth < 6
    before = xp.cumsum(short) - short  # short pairs before each pair
    stopped = before > before[xp.repeat(xp.cumsum(counts) - counts, counts)]
    reached = xp.where(stopped, 0, depth)
    bctx.logic_abort(lane[short])

    # a missing row gathers at -1: junk no reached step emits
    price = bctx.column_of("item", "i_price")[irows]
    s_qty = bctx.column_of("stock", "s_quantity")[srows]
    base = s_qty - qty
    new_qty = xp.where(base >= 10, base, base + 91)
    bctx.emit_steps(lane, reached, (
        ("read", "item", irows, "i_price", price),
        ("read", "stock", srows, "s_quantity", s_qty),
        ("write", "stock", srows, "s_quantity", new_qty),
        ("add", "stock", srows, "s_ytd", qty),
        ("add", "stock", srows, "s_order_cnt", 1),
        ("insert", "order_line", ol_key, {
            "ol_o_id": o_id[lane],
            "ol_i_id": item,
            "ol_quantity": qty,
            "ol_amount": price * qty,
        }),
    ))

    bctx.logic_abort(xp.flatnonzero(bctx.active_mask() & (rollback != 0)))
    rem = bctx.active_lanes()
    ok = bctx.insert(
        "orders",
        rem,
        o_id[rem],
        {"o_c_key": c_key[rem], "o_d_key": d_key[rem], "o_ol_cnt": n_items[rem]},
    )
    rem = rem[ok]
    bctx.insert("new_order", rem, o_id[rem], {"no_d_key": d_key[rem]})


def _payment_b(bctx: BatchedContext, params: ParamColumns):
    lanes = bctx.all_lanes()
    w = params.column(0)
    d = params.column(1)
    c_key = params.column(2)
    amount = params.column(3)
    h_id = params.column(4)
    d_key = w * DISTRICTS_PER_WAREHOUSE + d

    wrows, wf = bctx.rows_for_keys("warehouse", lanes, w)
    l1, wr1 = lanes[wf], wrows[wf]
    bctx.read_rows("warehouse", l1, wr1, "w_tax")
    drows, df = bctx.rows_for_keys("district", l1, d_key[l1])
    l2, dr2, wr2 = l1[df], drows[df], wr1[df]
    bctx.read_rows("district", l2, dr2, "d_tax")
    bctx.add("warehouse", l2, wr2, "w_ytd", amount[l2])
    bctx.add("district", l2, dr2, "d_ytd", amount[l2])
    crows, cf = bctx.rows_for_keys("customer", l2, c_key[l2])
    l3, cr3 = l2[cf], crows[cf]
    balance = bctx.read_rows("customer", l3, cr3, "c_balance")
    bctx.write("customer", l3, cr3, "c_balance", balance - amount[l3])
    bctx.add("customer", l3, cr3, "c_ytd_payment", amount[l3])
    bctx.add("customer", l3, cr3, "c_payment_cnt", 1)
    bctx.insert(
        "history",
        l3,
        h_id[l3],
        {"h_c_key": c_key[l3], "h_d_key": d_key[l3], "h_amount": amount[l3]},
    )


def _orderstatus_b(bctx: BatchedContext, params: ParamColumns):
    xp = bctx.xp
    lanes = bctx.all_lanes()
    c_key = params.column(0)
    crows, cf = bctx.rows_for_keys("customer", lanes, c_key)
    ok = lanes[cf]
    bctx.read_rows("customer", ok, crows[cf], "c_balance")
    # latest order via the secondary index — host work, like the scalar
    # path: the probe keys come back in one explicit D2H, one probe
    # resolves them all, and the positions that found an order ship
    # down with their rows (lanes without orders stop here)
    _, orders_t = bctx.resolve("orders")
    newest = orders_t.secondary["o_c_key"].get
    slots = np.fromiter(
        map(newest, xp.tolist(c_key[cf]), repeat(-1)), dtype=np.int64
    )
    hit = np.flatnonzero(slots >= 0)
    if not hit.size:
        return
    sl = ok[xp.from_host(hit)]
    srow = xp.from_host(slots[hit])
    ol_cnt = bctx.read_rows("orders", sl, srow, "o_ol_cnt")
    order_id = bctx.key_at_rows("orders", sl, srow)
    flat_keys = (
        xp.repeat(order_id * MAX_ORDER_LINES, ol_cnt)
        + _lane_major_offsets(xp, ol_cnt)
    )
    keep, flat_rows = bctx.rows_for_flat_keys(
        "order_line", sl, ol_cnt, flat_keys
    )
    bctx.read_rows(
        "order_line", xp.repeat(sl[keep], ol_cnt[keep]), flat_rows, "ol_amount"
    )


def _stocklevel_b(scale: TpccScale, bctx: BatchedContext, params: ParamColumns):
    xp = bctx.xp
    lanes = bctx.all_lanes()
    w = params.column(0)
    n_ids = params.lengths - 2
    max_ids = int(n_ids.max()) if lanes.size else 0
    if not max_ids:
        return
    items = xp.stack(
        [params.column(2 + j) for j in range(max_ids)], axis=1
    )
    valid = xp.arange(max_ids, dtype=np.int64) < n_ids[:, None]
    s_keys = (w[:, None] * scale.num_items + items)[valid]
    keep, flat_rows = bctx.rows_for_flat_keys("stock", lanes, n_ids, s_keys)
    bctx.read_rows(
        "stock", xp.repeat(lanes[keep], n_ids[keep]), flat_rows, "s_quantity"
    )


def _delivery_b(bctx: BatchedContext, params: ParamColumns):
    xp = bctx.xp
    lanes = bctx.all_lanes()
    carrier = params.column(1)
    n_orders = params.lengths - 2
    max_orders = int(n_orders.max()) if lanes.size else 0
    if not max_orders:
        return
    orders_mx = xp.stack(
        [params.column(2 + k) for k in range(max_orders)], axis=1
    )
    valid = xp.arange(max_orders, dtype=np.int64) < n_orders[:, None]

    # pre-resolve every order row against the snapshot index so
    # intra-lane duplicate *customers* can be detected up front (the
    # second balance read would need the first credit's overlay); the
    # valid cells probe the index in one call
    orow_mx = xp.full(orders_mx.shape, -1, dtype=np.int64)
    flat_idx = xp.flatnonzero(valid.reshape(-1))
    orow_mx.reshape(-1)[flat_idx] = _rows_of_keys(
        bctx, "orders", orders_mx.reshape(-1)[flat_idx]
    )
    found = valid & (orow_mx >= 0)
    ckey_mx = bctx.column_of("orders", "o_c_key")[xp.where(found, orow_mx, 0)]
    bctx.fall_back(lanes[_dup_in_rows(xp, ckey_mx, found)])

    for k in range(max_orders):
        cur = xp.flatnonzero(bctx.active_mask() & (n_orders > k))
        if not cur.size:
            continue
        orow = orow_mx[cur, k]
        missing = orow < 0
        # scalar: KeyNotFound at the carrier write, before emission
        bctx.logic_abort(cur[missing])
        cur, orow = cur[~missing], orow[~missing]
        bctx.write("orders", cur, orow, "o_carrier_id", carrier[cur])
        ol_cnt = bctx.read_rows("orders", cur, orow, "o_ol_cnt")
        flat_keys = (
            xp.repeat(orders_mx[cur, k] * MAX_ORDER_LINES, ol_cnt)
            + _lane_major_offsets(xp, ol_cnt)
        )
        keep, flat_rows = bctx.rows_for_flat_keys(
            "order_line", cur, ol_cnt, flat_keys
        )
        cur, orow, ol_cnt = cur[keep], orow[keep], ol_cnt[keep]
        amounts = bctx.read_rows(
            "order_line", xp.repeat(cur, ol_cnt), flat_rows, "ol_amount"
        )
        totals = _segment_sums(xp, ol_cnt, amounts)
        c_key = bctx.read_rows("orders", cur, orow, "o_c_key")
        crows, cf = bctx.rows_for_keys("customer", cur, c_key)
        cur2, cr2 = cur[cf], crows[cf]
        balance = bctx.read_rows("customer", cur2, cr2, "c_balance")
        bctx.write("customer", cur2, cr2, "c_balance", balance + totals[cf])
        bctx.add("customer", cur2, cr2, "c_delivery_cnt", 1)


def register_batched_procedures(
    registry: ProcedureRegistry, scale: TpccScale
) -> None:
    """Register the vectorized twins bound to ``scale``."""
    registry.register_batched(
        "neworder", functools.partial(_neworder_b, scale)
    )
    registry.register_batched("payment", _payment_b)
    registry.register_batched("orderstatus", _orderstatus_b)
    registry.register_batched(
        "stocklevel", functools.partial(_stocklevel_b, scale)
    )
    registry.register_batched("delivery", _delivery_b)
