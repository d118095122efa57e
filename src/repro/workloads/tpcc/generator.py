"""TPC-C transaction generation.

Seeded and deterministic: the same seed always produces the same
batches, so every engine can be fed identical inputs.  Transactions are
drawn one at a time (each type's draws depend on the ones before it),
with as few generator calls per transaction as the fixed draw order
allows; ``tests/test_workloads.py`` keeps the draw-by-draw form as the
reference and pins the stream's hash.

Customer selection for Payment mixes a skewed hot set (a few frequent
shoppers per district) with a NURand tail — this reproduces the paper's
residual Payment abort rate once the high-contention optimizations have
absorbed the warehouse/district hot rows (Table VI; see EXPERIMENTS.md
for calibration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.txn.transaction import Transaction
from repro.workloads.tpcc.schema import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    TpccScale,
)

#: Chance a Payment picks from the district's hot customer set, and the
#: size of that set (calibrated against Table VI; see EXPERIMENTS.md).
HOT_CUSTOMER_PROB = 0.5
HOT_CUSTOMERS_PER_DISTRICT = 4

#: NewOrder's spec-mandated 1% rollback rate.
ROLLBACK_PROB = 0.01

#: TPC-C's 15% remote payments: the customer belongs to another
#: warehouse while the YTD updates stay with the local one.
REMOTE_PAYMENT_PROB = 0.15

_NURAND_C_CUST = 463   # C constant for NURand(1023)

#: NewOrder orders 5..15 lines (spec 2.4.1.3).
_MIN_ORDER_LINES = 5
_MAX_ORDER_LINES = 15


def _nurand_customer(r1: int, r2: int) -> int:
    """NURand(1023, 0, CUSTOMERS_PER_DISTRICT - 1) from its two uniform
    draws, ``r1`` in [0, 1023] and ``r2`` in [0, CUSTOMERS_PER_DISTRICT)."""
    return ((r1 | r2) + _NURAND_C_CUST) % CUSTOMERS_PER_DISTRICT


@dataclass(frozen=True)
class TpccMix:
    """Fractions of each transaction type in a batch (must sum to 1)."""

    neworder: float = 0.5
    payment: float = 0.5
    orderstatus: float = 0.0
    stocklevel: float = 0.0
    delivery: float = 0.0

    def __post_init__(self) -> None:
        total = (
            self.neworder
            + self.payment
            + self.orderstatus
            + self.stocklevel
            + self.delivery
        )
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mix fractions sum to {total}, expected 1.0")

    @classmethod
    def neworder_percentage(cls, pct: int) -> "TpccMix":
        """The paper's '{pct}% NewOrder, rest Payment' configurations."""
        return cls(neworder=pct / 100.0, payment=1.0 - pct / 100.0)


class TpccGenerator:
    """Produces batches of TPC-C transactions."""

    def __init__(
        self,
        scale: TpccScale,
        mix: TpccMix | None = None,
        seed: int = 7,
        hot_customer_prob: float = HOT_CUSTOMER_PROB,
        hot_customers: int = HOT_CUSTOMERS_PER_DISTRICT,
        remote_payment_prob: float = REMOTE_PAYMENT_PROB,
    ):
        self.scale = scale
        self.mix = mix or TpccMix()
        self._rng = np.random.default_rng(seed)
        self.hot_customer_prob = hot_customer_prob
        self.hot_customers = hot_customers
        self.remote_payment_prob = remote_payment_prob
        # Unique ids for client-assigned primary keys; offset clear of
        # any loaded rows.
        self._next_order_id = 1_000_000
        self._next_history_id = 1
        # One bounded draw with per-element bounds consumes the bit
        # stream exactly as the same draws made one call at a time, at
        # the cost of one call.  NewOrder's head is (w, d, NURand r1,
        # NURand r2, line count); its tail for ``n`` lines is ``n`` item
        # ids then ``n`` quantities.
        self._neworder_head = (
            np.array([0, 0, 0, 0, _MIN_ORDER_LINES], dtype=np.int64),
            np.array(
                [
                    scale.warehouses,
                    DISTRICTS_PER_WAREHOUSE,
                    1024,
                    CUSTOMERS_PER_DISTRICT,
                    _MAX_ORDER_LINES + 1,
                ],
                dtype=np.int64,
            ),
        )
        self._neworder_tail = {
            n: (
                np.repeat(np.array([0, 1], dtype=np.int64), n),
                np.repeat(np.array([scale.num_items, 11], dtype=np.int64), n),
            )
            for n in range(_MIN_ORDER_LINES, _MAX_ORDER_LINES + 1)
        }

    # ------------------------------------------------------------------
    def make_batch(self, size: int) -> list[Transaction]:
        """Generate ``size`` fresh transactions following the mix."""
        if size <= 0:
            raise WorkloadError("batch size must be positive")
        mix = self.mix
        thresholds = np.cumsum(
            [mix.neworder, mix.payment, mix.orderstatus, mix.stocklevel, mix.delivery]
        )
        draws = self._rng.random(size)
        kinds = np.searchsorted(thresholds, draws, side="right")
        kinds = np.minimum(kinds, 4)
        makers = (
            self._neworder,
            self._payment,
            self._orderstatus,
            self._stocklevel,
            self._delivery,
        )
        return [makers[kind]() for kind in kinds.tolist()]

    # ------------------------------------------------------------------
    def _pick_wd(self) -> tuple[int, int]:
        rng = self._rng
        w = int(rng.integers(0, self.scale.warehouses))
        d = int(rng.integers(0, DISTRICTS_PER_WAREHOUSE))
        return w, d

    def _draw_nurand_customer(self) -> int:
        rng = self._rng
        r1 = int(rng.integers(0, 1024))
        r2 = int(rng.integers(0, CUSTOMERS_PER_DISTRICT))
        return _nurand_customer(r1, r2)

    # ------------------------------------------------------------------
    def _neworder(self) -> Transaction:
        rng = self._rng
        w, d, r1, r2, n_items = rng.integers(*self._neworder_head).tolist()
        c = _nurand_customer(r1, r2)
        # Uniform item choice: the paper's NewOrder commit rates (88.3%
        # at 32 WH, 63.4% at 8 WH, batch 16384) match the uniform
        # birthday-collision prediction exactly, so their generator did
        # not apply NURand(8191) skew; see EXPERIMENTS.md.
        tail = rng.integers(*self._neworder_tail[n_items]).tolist()
        o_id = self._next_order_id
        self._next_order_id += 1
        rollback = 1 if rng.random() < ROLLBACK_PROB else 0
        items = [0] * (2 * n_items)  # item id, quantity per line
        items[0::2] = tail[:n_items]
        items[1::2] = tail[n_items:]
        c_key = self.scale.customer_key(w, d, c)
        return Transaction("neworder", (w, d, c_key, o_id, rollback, *items))

    def _payment(self) -> Transaction:
        rng = self._rng
        warehouses = self.scale.warehouses
        w, d = self._pick_wd()
        # 15% remote payments: the paying customer lives in another
        # warehouse; the YTD updates stay with the local one (spec 2.5).
        c_w, c_d = w, d
        if warehouses > 1 and rng.random() < self.remote_payment_prob:
            c_w = int(rng.integers(0, warehouses - 1))
            if c_w >= w:
                c_w += 1
            c_d = int(rng.integers(0, DISTRICTS_PER_WAREHOUSE))
        if rng.random() < self.hot_customer_prob:
            c = int(rng.integers(0, self.hot_customers))
        else:
            c = self._draw_nurand_customer()
        amount = int(rng.integers(100, 500_001))
        h_id = self._next_history_id
        self._next_history_id += 1
        return Transaction(
            "payment", (w, d, self.scale.customer_key(c_w, c_d, c), amount, h_id)
        )

    def _orderstatus(self) -> Transaction:
        w, d = self._pick_wd()
        return Transaction(
            "orderstatus",
            (self.scale.customer_key(w, d, self._draw_nurand_customer()),),
        )

    def _stocklevel(self) -> Transaction:
        rng = self._rng
        w, _ = self._pick_wd()
        threshold = int(rng.integers(10, 21))
        item_ids = rng.integers(0, self.scale.num_items, 20).tolist()
        return Transaction("stocklevel", (w, threshold, *item_ids))

    def _delivery(self) -> Transaction:
        rng = self._rng
        w, _ = self._pick_wd()
        carrier = int(rng.integers(1, 11))
        # Pre-resolved order ids: sample from already-generated orders
        # (may reference orders whose NewOrder aborted; the procedure
        # is written to tolerate missing keys via KeyNotFound -> logic
        # abort, matching a real pre-resolution miss).
        if self._next_order_id == 1_000_000:
            return Transaction("delivery", (w, carrier))
        o_ids = rng.integers(1_000_000, self._next_order_id, 2).tolist()
        return Transaction("delivery", (w, carrier, *o_ids))
