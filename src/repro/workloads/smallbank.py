"""SmallBank: a third workload, exercising LTPG's generality claim.

The paper's core pitch against GaccO/GPUTx is that LTPG "can process
transactions directly without pre-processing", handling "a wider range
of business scenarios".  SmallBank (Alomari et al.) is the standard
short-transaction benchmark in the OCC literature: six procedures over
checking/savings accounts, with a hot-account skew knob.  No read/write
sets are declared anywhere — the procedures just run, which is exactly
the property the paper claims.

Procedures (all keyed by customer id):

* ``balance(c)``            — read both balances.
* ``deposit_checking(c,v)`` — commutative ADD on checking.
* ``transact_savings(c,v)`` — RMW savings with an overdraft check.
* ``amalgamate(c0,c1)``     — move everything from c0 to c1's checking.
* ``write_check(c,v)``      — conditional checking debit (penalty if
  overdrawn).
* ``send_payment(c0,c1,v)`` — checking-to-checking transfer, aborts on
  insufficient funds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.storage.database import Database
from repro.storage.schema import make_schema
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Transaction
from repro.workloads.rand import ZipfGenerator

ACCOUNTS = make_schema("smallbank", "cust_id", "checking", "savings")

#: Default procedure mix (uniform across the six, like the original).
DEFAULT_MIX: dict[str, float] = {
    "balance": 0.15,
    "deposit_checking": 0.25,
    "transact_savings": 0.15,
    "amalgamate": 0.15,
    "write_check": 0.15,
    "send_payment": 0.15,
}

def _register_procedures(registry: ProcedureRegistry) -> None:
    @registry.register("balance")
    def balance(ctx, c):
        ctx.read("smallbank", c, "checking")
        ctx.read("smallbank", c, "savings")

    @registry.register("deposit_checking")
    def deposit_checking(ctx, c, value):
        ctx.add("smallbank", c, "checking", value)

    @registry.register("transact_savings")
    def transact_savings(ctx, c, value):
        savings = ctx.read("smallbank", c, "savings")
        if savings + value < 0:
            ctx.abort("insufficient savings")
        ctx.write("smallbank", c, "savings", savings + value)

    @registry.register("amalgamate")
    def amalgamate(ctx, c0, c1):
        checking = ctx.read("smallbank", c0, "checking")
        savings = ctx.read("smallbank", c0, "savings")
        ctx.write("smallbank", c0, "checking", 0)
        ctx.write("smallbank", c0, "savings", 0)
        ctx.add("smallbank", c1, "checking", checking + savings)

    @registry.register("write_check")
    def write_check(ctx, c, value):
        checking = ctx.read("smallbank", c, "checking")
        savings = ctx.read("smallbank", c, "savings")
        penalty = 1 if value > checking + savings else 0
        ctx.write("smallbank", c, "checking", checking - value - penalty)

    @registry.register("send_payment")
    def send_payment(ctx, c0, c1, value):
        checking = ctx.read("smallbank", c0, "checking")
        if checking < value:
            ctx.abort("insufficient funds")
        ctx.write("smallbank", c0, "checking", checking - value)
        ctx.add("smallbank", c1, "checking", value)

    _register_batched(registry)


def _balance_b(bctx, params):
    lanes = bctx.all_lanes()
    rows, found = bctx.rows_for_keys("smallbank", lanes, params.column(0))
    ok, r = lanes[found], rows[found]
    bctx.read_rows("smallbank", ok, r, "checking")
    bctx.read_rows("smallbank", ok, r, "savings")


def _deposit_checking_b(bctx, params):
    lanes = bctx.all_lanes()
    rows, found = bctx.rows_for_keys("smallbank", lanes, params.column(0))
    bctx.add(
        "smallbank", lanes[found], rows[found], "checking",
        params.column(1)[found],
    )


def _transact_savings_b(bctx, params):
    lanes = bctx.all_lanes()
    rows, found = bctx.rows_for_keys("smallbank", lanes, params.column(0))
    ok, r = lanes[found], rows[found]
    savings = bctx.read_rows("smallbank", ok, r, "savings")
    value = params.column(1)[found]
    bad = savings + value < 0
    bctx.logic_abort(ok[bad])
    g = ~bad
    bctx.write("smallbank", ok[g], r[g], "savings", (savings + value)[g])


def _amalgamate_b(bctx, params):
    lanes = bctx.all_lanes()
    rows, found = bctx.rows_for_keys("smallbank", lanes, params.column(0))
    ok, r = lanes[found], rows[found]
    checking = bctx.read_rows("smallbank", ok, r, "checking")
    savings = bctx.read_rows("smallbank", ok, r, "savings")
    bctx.write("smallbank", ok, r, "checking", 0)
    bctx.write("smallbank", ok, r, "savings", 0)
    # the destination key resolves only at the ADD, after the
    # source writes — exactly like the scalar emission order
    rows1, found1 = bctx.rows_for_keys(
        "smallbank", ok, params.column(1)[found]
    )
    bctx.add(
        "smallbank", ok[found1], rows1[found1], "checking",
        (checking + savings)[found1],
    )


def _write_check_b(bctx, params):
    lanes = bctx.all_lanes()
    rows, found = bctx.rows_for_keys("smallbank", lanes, params.column(0))
    ok, r = lanes[found], rows[found]
    checking = bctx.read_rows("smallbank", ok, r, "checking")
    savings = bctx.read_rows("smallbank", ok, r, "savings")
    value = params.column(1)[found]
    penalty = (value > checking + savings).astype(np.int64)
    bctx.write("smallbank", ok, r, "checking", checking - value - penalty)


def _send_payment_b(bctx, params):
    lanes = bctx.all_lanes()
    rows, found = bctx.rows_for_keys("smallbank", lanes, params.column(0))
    ok, r = lanes[found], rows[found]
    checking = bctx.read_rows("smallbank", ok, r, "checking")
    value = params.column(2)[found]
    bad = checking < value
    bctx.logic_abort(ok[bad])
    g = ~bad
    ok, r, value = ok[g], r[g], value[g]
    bctx.write("smallbank", ok, r, "checking", (checking[g] - value))
    rows1, found1 = bctx.rows_for_keys(
        "smallbank", ok, params.column(1)[ok]
    )
    bctx.add("smallbank", ok[found1], rows1[found1], "checking", value[found1])


def _register_batched(registry: ProcedureRegistry) -> None:
    """Vectorized twins.  Every SmallBank procedure reads a location
    before it writes it, so no lane ever needs a read-your-own-writes
    overlay and none falls back to the scalar path."""
    registry.register_batched("balance", _balance_b)
    registry.register_batched("deposit_checking", _deposit_checking_b)
    registry.register_batched("transact_savings", _transact_savings_b)
    registry.register_batched("amalgamate", _amalgamate_b)
    registry.register_batched("write_check", _write_check_b)
    registry.register_batched("send_payment", _send_payment_b)


class SmallBankGenerator:
    """Zipf-skewed account selection over the six procedures."""

    def __init__(
        self,
        num_accounts: int,
        mix: dict[str, float] | None = None,
        zipf_alpha: float = 1.0,
        seed: int = 7,
    ):
        if num_accounts < 2:
            raise WorkloadError("SmallBank needs at least two accounts")
        self.num_accounts = num_accounts
        self.mix = dict(mix or DEFAULT_MIX)
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mix sums to {total}, expected 1.0")
        unknown = set(self.mix) - set(DEFAULT_MIX)
        if unknown:
            raise WorkloadError(f"unknown SmallBank procedures: {sorted(unknown)}")
        self.zipf = ZipfGenerator(num_accounts, zipf_alpha)
        self._rng = np.random.default_rng(seed)

    def _account(self) -> int:
        return self.zipf.sample_one(self._rng)

    def _two_accounts(self) -> tuple[int, int]:
        a = self._account()
        b = self._account()
        while b == a:
            b = int(self._rng.integers(0, self.num_accounts))
        return a, b

    def make_batch(self, size: int) -> list[Transaction]:
        if size <= 0:
            raise WorkloadError("batch size must be positive")
        rng = self._rng
        names = list(self.mix)
        probs = np.array([self.mix[n] for n in names])
        picks = rng.choice(len(names), size=size, p=probs)
        txns: list[Transaction] = []
        for pick in picks:
            name = names[int(pick)]
            if name == "balance":
                txns.append(Transaction(name, (self._account(),)))
            elif name == "deposit_checking":
                txns.append(
                    Transaction(name, (self._account(), int(rng.integers(1, 100))))
                )
            elif name == "transact_savings":
                txns.append(
                    Transaction(name, (self._account(), int(rng.integers(-50, 100))))
                )
            elif name == "amalgamate":
                txns.append(Transaction(name, self._two_accounts()))
            elif name == "write_check":
                txns.append(
                    Transaction(name, (self._account(), int(rng.integers(1, 100))))
                )
            else:  # send_payment
                a, b = self._two_accounts()
                txns.append(Transaction(name, (a, b, int(rng.integers(1, 50)))))
        return txns


def build_smallbank(
    num_accounts: int,
    mix: dict[str, float] | None = None,
    zipf_alpha: float = 1.0,
    seed: int = 7,
    initial_balance: int = 10_000,
) -> tuple[Database, ProcedureRegistry, SmallBankGenerator]:
    """Load a SmallBank instance: (database, registry, generator)."""
    db = Database("smallbank")
    table = db.create_table(ACCOUNTS, capacity=max(1024, num_accounts))
    keys = np.arange(num_accounts, dtype=np.int64)
    table.bulk_load(
        keys,
        {
            "checking": np.full(num_accounts, initial_balance, dtype=np.int64),
            "savings": np.full(num_accounts, initial_balance, dtype=np.int64),
        },
    )
    registry = ProcedureRegistry()
    _register_procedures(registry)
    generator = SmallBankGenerator(
        num_accounts, mix=mix, zipf_alpha=zipf_alpha, seed=seed
    )
    return db, registry, generator
