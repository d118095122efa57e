"""TPC-C stored procedures, adapted to pre-resolved integer keys.

Adaptations (mirroring the paper's, see DESIGN.md and EXPERIMENTS.md):

* Order / history primary keys are assigned by the client generator, so
  NewOrder never read-modify-writes ``d_next_o_id`` (the paper's
  hash-index engines pre-define the primary keys of inserted rows).
  Without this, every district's sequence counter would serialize the
  whole batch — and the paper's measured NewOrder commit rates (88%
  at 32 warehouses, optimization on *or* off) prove their NewOrder has
  no per-district choke point.
* NewOrder takes warehouse/district tax rates as parameters instead of
  reading the warehouse/district rows (same evidence; Payment's hot
  ``W_YTD``/``D_YTD`` writes would otherwise abort every NewOrder in
  the unoptimized configuration, contradicting Table VI).
* Payment's customer-by-last-name path becomes a skewed customer-id
  choice in the generator (strings are unavailable).

Conflict footprints that drive the reproduced numbers:

* NewOrder: RMW on ~5-15 stock rows (WAW collisions -> its ~12% abort
  rate at 32 warehouses), reads of item/customer rows.
* Payment: commutative ADDs on ``w_ytd``/``d_ytd`` (the high-contention
  hot spots the §V-D optimizations target) plus an RMW on one customer
  row (the residual ~35-50% abort rate under the skewed choice).
"""

from __future__ import annotations

from repro.txn.context import BufferedContext
from repro.txn.procedures import ProcedureRegistry
from repro.workloads.tpcc.schema import MAX_ORDER_LINES, TpccScale

#: The (table, column) pairs LTPG should manage with delayed updates.
DELAYED_COLUMNS = frozenset(
    {("warehouse", "w_ytd"), ("district", "d_ytd")}
)

#: Columns worth a dedicated conflict-flag group (row-level splitting).
SPLIT_COLUMNS = frozenset(
    {("customer", "c_balance")}
)

#: Tables a developer would pre-mark as popular (tiny + hammered).
HOT_TABLES = frozenset({"warehouse", "district"})


def register_procedures(registry: ProcedureRegistry, scale: TpccScale) -> None:
    """Register the five TPC-C procedures bound to ``scale``."""

    @registry.register("neworder")
    def neworder(ctx: BufferedContext, w, d, c_key, o_id, rollback, *items):
        """Place an order: read prices, decrement stocks, insert the
        order, its lines, and the new-order entry.

        ``items`` is a flat (item_id, quantity) sequence; ``rollback``
        simulates the spec's 1% unused-item abort.
        """
        ctx.read("customer", c_key, "c_discount")
        d_key = scale.district_key(w, d)
        n_items = len(items) // 2
        total = 0
        for j in range(n_items):
            item_id = items[2 * j]
            quantity = items[2 * j + 1]
            price = ctx.read("item", item_id, "i_price")
            s_key = scale.stock_key(w, item_id)
            s_qty = ctx.read("stock", s_key, "s_quantity")
            if s_qty - quantity >= 10:
                new_qty = s_qty - quantity
            else:
                new_qty = s_qty - quantity + 91
            ctx.write("stock", s_key, "s_quantity", new_qty)
            ctx.add("stock", s_key, "s_ytd", quantity)
            ctx.add("stock", s_key, "s_order_cnt", 1)
            amount = price * quantity
            total += amount
            ctx.insert(
                "order_line",
                o_id * MAX_ORDER_LINES + j,
                {
                    "ol_o_id": o_id,
                    "ol_i_id": item_id,
                    "ol_quantity": quantity,
                    "ol_amount": amount,
                },
            )
        if rollback:
            ctx.abort("unused item id")
        ctx.insert(
            "orders",
            o_id,
            {"o_c_key": c_key, "o_d_key": d_key, "o_ol_cnt": n_items},
        )
        ctx.insert("new_order", o_id, {"no_d_key": d_key})

    @registry.register("payment")
    def payment(ctx: BufferedContext, w, d, c_key, amount, h_id):
        """Record a payment: bump warehouse/district YTD (hot,
        commutative), settle the customer, append history.

        The warehouse/district *reads* (the spec reads names and
        addresses; integers here) land in the default conflict group,
        so with row-level splitting they never clash with the delayed
        ``w_ytd``/``d_ytd`` writes — but they do register TIDs on the
        hottest rows, which is what the dynamic hash buckets absorb.
        """
        d_key = scale.district_key(w, d)
        ctx.read("warehouse", w, "w_tax")
        ctx.read("district", d_key, "d_tax")
        ctx.add("warehouse", w, "w_ytd", amount)
        ctx.add("district", d_key, "d_ytd", amount)
        balance = ctx.read("customer", c_key, "c_balance")
        ctx.write("customer", c_key, "c_balance", balance - amount)
        ctx.add("customer", c_key, "c_ytd_payment", amount)
        ctx.add("customer", c_key, "c_payment_cnt", 1)
        ctx.insert(
            "history", h_id, {"h_c_key": c_key, "h_d_key": d_key, "h_amount": amount}
        )

    @registry.register("orderstatus")
    def orderstatus(ctx: BufferedContext, c_key):
        """Read a customer's balance and their latest order's lines."""
        ctx.read("customer", c_key, "c_balance")
        row = ctx.newest_row("orders", "o_c_key", c_key)
        if row is None:
            return
        # Read the order header, then its lines via predefined keys.
        ol_cnt = ctx.read_at("orders", row, "o_ol_cnt")
        order_id = ctx.key_at("orders", row)
        for j in range(ol_cnt):
            ctx.read("order_line", order_id * MAX_ORDER_LINES + j, "ol_amount")

    @registry.register("stocklevel")
    def stocklevel(ctx: BufferedContext, w, threshold, *item_ids):
        """Count recently-sold items with stock below ``threshold``
        (item ids pre-resolved by the client, per the paper)."""
        below = 0
        for item_id in item_ids:
            qty = ctx.read("stock", scale.stock_key(w, item_id), "s_quantity")
            if qty < threshold:
                below += 1

    @registry.register("delivery")
    def delivery(ctx: BufferedContext, w, carrier, *order_ids):
        """Deliver one pre-resolved undelivered order per district:
        stamp the carrier, credit the customer."""
        for o_id in order_ids:
            ctx.write("orders", o_id, "o_carrier_id", carrier)
            ol_cnt = ctx.read("orders", o_id, "o_ol_cnt")
            total = 0
            for j in range(ol_cnt):
                total += ctx.read(
                    "order_line", o_id * MAX_ORDER_LINES + j, "ol_amount"
                )
            c_key = ctx.read("orders", o_id, "o_c_key")
            balance = ctx.read("customer", c_key, "c_balance")
            ctx.write("customer", c_key, "c_balance", balance + total)
            ctx.add("customer", c_key, "c_delivery_cnt", 1)

    # vectorized twins for the batched executor (late import: the
    # batched module depends on the context/registry layers above)
    from repro.workloads.tpcc.batched import register_batched_procedures

    register_batched_procedures(registry, scale)
