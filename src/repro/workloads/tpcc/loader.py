"""TPC-C database population (vectorized)."""

from __future__ import annotations

import numpy as np

from repro.storage.database import Database
from repro.workloads.tpcc.schema import (
    ALL_SCHEMAS,
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    TpccScale,
)


def load_tpcc(scale: TpccScale, seed: int = 42) -> Database:
    """Build and populate a TPC-C database at the given scale.

    Initial values follow the spec's spirit with integer types: taxes
    are per-10000 fractions, prices cents, stock quantities 10..100.
    """
    rng = np.random.default_rng(seed)
    db = Database("tpcc")
    for schema in ALL_SCHEMAS:
        # Orders-side tables start empty and grow; give them headroom.
        capacity = 4096 if schema.table_name in ("orders", "new_order", "order_line", "history") else 1024
        db.create_table(schema, capacity=capacity)

    w = scale.warehouses
    warehouse_keys = np.arange(w, dtype=np.int64)
    db.table("warehouse").bulk_load(
        warehouse_keys,
        {
            "w_tax": rng.integers(0, 2001, w),
            "w_ytd": np.full(w, 3_000_000, dtype=np.int64),
        },
    )

    nd = scale.num_districts
    db.table("district").bulk_load(
        np.arange(nd, dtype=np.int64),
        {
            "d_tax": rng.integers(0, 2001, nd),
            "d_ytd": np.full(nd, 300_000, dtype=np.int64),
            "d_next_o_id": np.full(nd, 3001, dtype=np.int64),
        },
    )

    nc = scale.num_customers
    db.table("customer").bulk_load(
        np.arange(nc, dtype=np.int64),
        {
            "c_discount": rng.integers(0, 5001, nc),
            "c_balance": np.full(nc, -1000, dtype=np.int64),
            "c_ytd_payment": np.full(nc, 1000, dtype=np.int64),
            "c_payment_cnt": np.ones(nc, dtype=np.int64),
            "c_delivery_cnt": np.zeros(nc, dtype=np.int64),
        },
    )

    ni = scale.num_items
    db.table("item").bulk_load(
        np.arange(ni, dtype=np.int64),
        {
            "i_price": rng.integers(100, 10001, ni),
            "i_im_id": rng.integers(1, 10001, ni),
        },
    )

    ns = scale.num_stock
    db.table("stock").bulk_load(
        np.arange(ns, dtype=np.int64),
        {
            "s_quantity": rng.integers(10, 101, ns),
            "s_ytd": np.zeros(ns, dtype=np.int64),
            "s_order_cnt": np.zeros(ns, dtype=np.int64),
            "s_remote_cnt": np.zeros(ns, dtype=np.int64),
        },
    )

    # OrderStatus needs "a customer's latest order".  (Delivery takes
    # its order ids resolved ahead of time, so new_order has no index.)
    db.table("orders").add_secondary_index("o_c_key")
    return db


def tpcc_nbytes(scale: TpccScale) -> int:
    """Estimated resident bytes of a freshly loaded instance (used by
    memory-mode planning in benches without loading the data)."""
    per_row = {s.table_name: s.row_bytes for s in ALL_SCHEMAS}
    return (
        scale.warehouses * per_row["warehouse"]
        + scale.num_districts * per_row["district"]
        + scale.num_customers * per_row["customer"]
        + scale.num_items * per_row["item"]
        + scale.num_stock * per_row["stock"]
    )
