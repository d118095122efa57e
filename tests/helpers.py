"""Shared test helpers (importable as `helpers`; kept out of
conftest.py so the module name never collides with benchmarks/)."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.bench import paper
from repro.core import LTPGConfig, LTPGEngine
from repro.storage import Database, make_schema
from repro.txn import ProcedureRegistry, Transaction


#: The smoke scale of the bench tests: paper sizes divided by 64.
TINY = 64.0

#: One smoke run per case: (experiment, scale, rounds, axis overrides).
#: ``tests/test_bench.py`` holds each case to its spec's shape predicate
#: and renders it; ``tests/test_driver_goldens.py`` pins its cells.
SMOKE: dict[str, tuple[str, float, int, dict]] = {
    "table2": ("table2", TINY, 2, dict(pct=(50,), warehouses=(8,))),
    # GaccO's payment-only lead needs a reasonable payments-per-warehouse
    # ratio: a moderate scale rather than the smoke scale
    "table2@16": (
        "table2",
        16.0,
        2,
        dict(pct=(50, 0), warehouses=(8,), system=("ltpg", "gacco", "calvin")),
    ),
    "table3": ("table3", TINY, 2, dict(pct=(50,), warehouses=(8,), batch=(2**8, 2**14))),
    "table4": ("table4", TINY, 2, dict(warehouses=(8,), batch=(8_192,))),
    "table5": ("table5", TINY, 2, dict(batch=(1_024, 65_536))),
    "table6": ("table6", TINY, 2, dict(warehouses=(8,), batch=(16_384,))),
    "table7": ("table7", TINY, 2, {}),
    "table8": ("table8", TINY, 2, dict(warehouses=(8, 64))),
    "table9": ("table9", 64.0, 1, {}),
    # spread the batch sizes: adjacent small sizes sit in the
    # fixed-cost-dominated regime where latencies nearly tie
    "fig6a": ("fig6a", TINY, 2, dict(batch=(2**8, 2**16))),
    "fig6b": ("fig6b", TINY, 2, {}),
    "fig7": (
        "fig7",
        TINY,
        2,
        dict(data_size=(10_000,), workload=("a", "b", "c", "e"), batch=(2**10,)),
    ),
    "ablations": ("ablations", 64.0, 2, {}),
    "sweep": ("sweep", 32.0, 2, dict(hot=(0.0, 1.0))),
    "fullmix": ("fullmix", 32.0, 3, {}),
    "calibration": (
        "calibration",
        64.0,
        2,
        dict(source=("table2",), anchor=((50, 8, "gacco"),)),
    ),
    "calibration@table7": ("calibration", TINY, 2, dict(source=("table7",))),
}


@functools.cache
def smoke(case: str) -> dict[tuple, dict]:
    """A smoke case's records as ``{key: values}``, run once per test run
    (read-only: the shape tests and the goldens share it)."""
    name, scale, rounds, axes = SMOKE[case]
    return dict(paper.run(name, scale, rounds, **axes))


def violates(case: str, key: tuple, column: str, value: float) -> None:
    """The spec's shape predicate rejects the smoke records with one
    cell's column set to ``value``."""
    name, scale, _, _ = SMOKE[case]
    records = {k: dict(v) for k, v in smoke(case).items()}
    records[key][column] = value
    with pytest.raises(AssertionError):
        paper.SPECS[name].shape(records, scale)



def build_bank(accounts: int = 64, balance: int = 1000) -> tuple[Database, ProcedureRegistry]:
    """A tiny two-table bank: deterministic, easy to reason about.

    Procedures:

    * ``transfer(a, b, amount)`` — RMW both balances (classic conflict).
    * ``deposit(a, amount)``     — commutative ADD on one balance.
    * ``audit(a, b)``            — read two balances.
    * ``open_account(key, amount)`` — insert.
    * ``bad(a)``                 — always rolls itself back after a write.
    """
    db = Database("bank")
    table = db.create_table(make_schema("accounts", "acct_id", "balance", "flags"))
    table.bulk_load(
        np.arange(accounts, dtype=np.int64),
        {"balance": np.full(accounts, balance, dtype=np.int64)},
    )
    registry = ProcedureRegistry()

    @registry.register("transfer")
    def transfer(ctx, a, b, amount):
        bal_a = ctx.read("accounts", a, "balance")
        bal_b = ctx.read("accounts", b, "balance")
        ctx.write("accounts", a, "balance", bal_a - amount)
        ctx.write("accounts", b, "balance", bal_b + amount)

    @registry.register("deposit")
    def deposit(ctx, a, amount):
        ctx.add("accounts", a, "balance", amount)

    @registry.register("audit")
    def audit(ctx, a, b):
        ctx.read("accounts", a, "balance")
        ctx.read("accounts", b, "balance")

    @registry.register("open_account")
    def open_account(ctx, key, amount):
        ctx.insert("accounts", key, {"balance": amount})

    @registry.register("bad")
    def bad(ctx, a):
        ctx.write("accounts", a, "flags", 1)
        ctx.abort("always rolls back")

    return db, registry


def bank_engine(
    accounts: int = 64, config: LTPGConfig | None = None
) -> tuple[LTPGEngine, Database, ProcedureRegistry]:
    db, registry = build_bank(accounts)
    engine = LTPGEngine(db, registry, config or LTPGConfig(batch_size=64))
    return engine, db, registry


class StubEngine:
    """A scriptable engine double for the serve-layer tests.

    Implements exactly the surface the :class:`repro.serve.orchestrator
    .Orchestrator` touches — ``config.batch_size`` /
    ``config.effective_retry_delay``, ``run_batch``, optional ``tracer``
    — with a pluggable per-transaction ``verdict`` and a fixed simulated
    ``latency_ns`` per non-empty batch.  ``latency_ns=0`` makes policy
    deadlines *exact* (no queueing delay ever accrues), which the
    Hypothesis deadline-bound property relies on.

    ``verdict(txn) -> "commit" | "abort" | "logic"`` — "abort" means a
    concurrency-control abort (the orchestrator re-queues it).
    """

    def __init__(
        self,
        batch_size: int = 8,
        latency_ns: float = 0.0,
        retry_delay: int = 1,
        verdict=None,
    ):
        from types import SimpleNamespace

        self.config = SimpleNamespace(
            batch_size=batch_size, effective_retry_delay=retry_delay
        )
        self.latency_ns = latency_ns
        self.verdict = verdict or (lambda txn: "commit")
        self.tracer = None
        self.metrics = None
        #: every batch run, as (procedure_name, tid) tuples
        self.batches: list[list[tuple[str, int]]] = []

    def reset_run_state(self) -> None:
        self.batches = []

    def run_batch(self, batch):
        from repro.core.engine import BatchResult
        from repro.core.stats import BatchStats
        from repro.txn.transaction import TxnStatus

        self.batches.append([(t.procedure_name, t.tid) for t in batch])
        committed, aborted, logic = [], [], []
        for t in batch:
            t.attempts += 1
            kind = self.verdict(t)
            if kind == "commit":
                t.status = TxnStatus.COMMITTED
                committed.append(t)
            elif kind == "abort":
                t.status = TxnStatus.ABORTED
                t.abort_reason = "stub-cc"
                aborted.append(t)
            elif kind == "logic":
                t.status = TxnStatus.LOGIC_ABORTED
                t.abort_reason = "stub-logic"
                logic.append(t)
            else:  # pragma: no cover - test-authoring error
                raise ValueError(f"unknown stub verdict {kind!r}")
        stats = BatchStats(
            batch_index=len(self.batches) - 1,
            num_txns=len(batch),
            committed=len(committed),
            aborted=len(aborted),
            logic_aborted=len(logic),
            latency_ns=self.latency_ns if batch else 0.0,
        )
        return BatchResult(stats, committed, aborted, logic)


class BoundaryObserver:
    """A :class:`repro.core.batch.BatchObserver` for tests — attach with
    ``engine.observers += (BoundaryObserver(...),)``.

    ``at=(call, stage)`` names one boundary, e.g. ``("stage_leaving",
    "execute")`` or ``("batch_done", None)``; the first time the runner
    reaches it, ``RuntimeError("injected")`` is raised (the engine
    crashed there, once).  ``batch_done`` is called with every batch
    record once it is over.
    """

    def __init__(self, at=None, batch_done=None):
        self.at, self.on_done = at, batch_done

    def _reach(self, call, stage=None):
        if self.at == (call, stage):
            self.at = None
            raise RuntimeError("injected")

    def stage_entered(self, engine, batch, stage):
        self._reach("stage_entered", stage.name)

    def stage_leaving(self, engine, batch, stage):
        self._reach("stage_leaving", stage.name)

    def stage_synced(self, engine, batch, stage):
        self._reach("stage_synced", stage.name)

    def batch_done(self, engine, batch):
        if self.on_done is not None:
            self.on_done(batch)
        self._reach("batch_done")


def txn(name: str, *params) -> Transaction:
    return Transaction(name, tuple(params))


def tids(transactions) -> None:
    """Assign sequential TIDs in list order."""
    for i, t in enumerate(transactions):
        t.tid = i


def mixed_bank_registry():
    """:func:`build_bank` (32 accounts) with batched twins for
    ``deposit`` and ``transfer`` only — and ``transfer``'s twin sends
    its odd lanes to fallback — so one batch can hold vectorized,
    fallback and twin-less lanes."""
    db, registry = build_bank(accounts=32)

    @registry.register_batched("deposit")
    def deposit_b(bctx, p):
        lanes = bctx.active_lanes()
        keys = p.column(0)[lanes]
        amounts = p.column(1)[lanes]
        rows, found = bctx.rows_for_keys("accounts", lanes, keys)
        bctx.add("accounts", lanes[found], rows[found], "balance", amounts[found])

    @registry.register_batched("transfer")
    def transfer_b(bctx, p):
        lanes = bctx.active_lanes()
        # send odd lanes to the scalar re-run on purpose: the test wants
        # vectorized, fallback, and scalar-only lanes in the same batch
        odd = lanes % 2 == 1
        bctx.fall_back(lanes[odd])
        lanes = lanes[~odd]
        a = p.column(0)[lanes]
        b = p.column(1)[lanes]
        amount = p.column(2)[lanes]
        bal_a, rows_a, found = bctx.read_keys("accounts", lanes, a, "balance")
        lanes, b, amount = lanes[found], b[found], amount[found]
        bal_b, rows_b, found_b = bctx.read_keys("accounts", lanes, b, "balance")
        lanes = lanes[found_b]
        bctx.write(
            "accounts", lanes, rows_a[found_b], "balance",
            bal_a[found_b] - amount[found_b],
        )
        bctx.write("accounts", lanes, rows_b, "balance", bal_b + amount[found_b])

    return db, registry


def mixed_bank_specs() -> list[tuple[str, tuple]]:
    """One batch of ``(procedure, params)`` for
    :func:`mixed_bank_registry` that takes all three execution routes
    and has logic aborts (``bad``) and inserts."""
    specs: list[tuple[str, tuple]] = []
    for i in range(48):
        specs.append(("transfer", (i % 32, (i + 7) % 32, 1 + i % 5)))
        specs.append(("deposit", (i % 32, 2 + i % 3)))
        # audit/open_account/bad have no batched twins: whole groups run
        # through the engine's automatic per-transaction fallback
        specs.append(("audit", (i % 32, (i + 3) % 32)))
        if i % 11 == 0:
            specs.append(("open_account", (100 + i, 9)))
        if i % 13 == 0:
            specs.append(("bad", (i % 32,)))
    return specs


def observe_cell(
    workload: str,
    batches: int = 2,
    batch_size: int = 256,
    reference: bool = False,
    **config,
):
    """One cell of the conformance lattice: ``batches`` generated batches
    of a shipped workload (``tpcc`` | ``ycsb`` | ``smallbank`` with its
    paper markings, seeded, so every cell sees the same transactions) on
    an engine built from ``config``.  Returns
    each batch's per-lane statuses and abort reasons, then the final
    state digest — what every cell must share with the reference cell,
    ``observe_cell(workload, reference=True)``: the host-only
    :class:`~reference_engine.ReferenceEngine`.

    Agreement with another engine is never the only evidence: every
    batch of every cell is also replayed serially, in witness order, on
    a copy of the state it started from, and must land on the state the
    engine left (:func:`repro.validate.replay_in_witness_order`)."""
    from reference_engine import ReferenceEngine
    from repro.analysis.workload import build_workload
    from repro.txn import assign_tids
    from repro.validate import replay_in_witness_order

    setup = build_workload(workload)
    if reference:
        engine = ReferenceEngine(
            setup.database,
            setup.registry,
            LTPGConfig(batch_size=batch_size, **setup.config_kwargs, **config),
        )
    else:
        engine = setup.engine(batch_size=batch_size, **config)
    out: list = []
    next_tid = 0
    with engine:
        for _ in range(batches):
            batch = setup.generator.make_batch(batch_size)
            next_tid = assign_tids(batch, next_tid)
            before = setup.database.copy()
            result = engine.run_batch(batch)
            replay_in_witness_order(before, setup.registry, result)
            assert before.state_digest() == setup.database.state_digest()
            out.append(
                ([t.status for t in batch], [t.abort_reason for t in batch])
            )
    out.append(setup.database.state_digest())
    return out
