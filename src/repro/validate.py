"""Self-validation: determinism and serializability checks.

``python -m repro.validate`` runs the library's two core guarantees on
fresh workloads and prints a report:

* **Determinism** — processing the same logged input twice (and
  recovering from a snapshot + log) yields byte-identical database
  states and commit sets.
* **Serializability** — every batch's committed transactions, replayed
  serially in the engine's own witness order, reproduce the engine's
  state exactly.

This is the executable form of the paper's §IV correctness argument,
and a quick health check after modifying the engine.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.analysis.workload import WORKLOAD_NAMES, build_workload
from repro.core import LTPGConfig, LTPGEngine
from repro.storage import Snapshot, recover
from repro.txn import BufferedContext, apply_local_sets, assign_tids
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    HOT_TABLES,
    SPLIT_COLUMNS,
    build_tpcc,
)


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def format(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            lines.append(f"[{mark}] {name}{suffix}")
        lines.append(
            "all checks passed" if self.passed else "VALIDATION FAILED"
        )
        return "\n".join(lines)


def _setup(seed: int):
    db, registry, generator = build_tpcc(warehouses=2, num_items=4000, seed=seed)
    config = LTPGConfig(
        batch_size=512,
        delayed_columns=DELAYED_COLUMNS,
        split_columns=SPLIT_COLUMNS,
        hot_tables=HOT_TABLES,
    )
    return db, registry, generator, config


def check_determinism(report: ValidationReport, seed: int = 11) -> None:
    """Same input twice -> same commits, same state."""
    outcomes = []
    for _ in range(2):
        db, registry, generator, config = _setup(seed)
        engine = LTPGEngine(db, registry, config)
        batch = generator.make_batch(512)
        assign_tids(batch, 0)
        result = engine.run_batch(batch)
        outcomes.append(
            (sorted(t.tid for t in result.committed), db.state_digest())
        )
    ok = outcomes[0] == outcomes[1]
    report.record("determinism: identical reruns", ok)


def replay_in_witness_order(database, registry, result) -> None:
    """Run the transactions ``result`` committed on ``database``, one at
    a time through their scalar procedures, in the engine's own
    serial-order witness.  On a copy of the state the batch started
    from, this must reproduce the state the engine left: the oracle
    that shares nothing with the engine but the procedures."""
    by_tid = {t.tid: t for t in result.committed}
    for tid in result.serial_order():
        txn = by_tid[tid]
        ctx = BufferedContext(database)
        registry.get(txn.procedure_name)(ctx, *txn.params)
        apply_local_sets(database, ctx.local)


def check_serializability(report: ValidationReport, seed: int = 12) -> None:
    """Committed effects == serial replay in witness order, on every
    shipped workload with its paper markings."""
    for name in WORKLOAD_NAMES:
        setup = build_workload(name, seed=seed)
        reference = setup.database.copy()
        batch = setup.generator.make_batch(512)
        assign_tids(batch, 0)
        with setup.engine(batch_size=512) as engine:
            result = engine.run_batch(batch)
        replay_in_witness_order(reference, setup.registry, result)
        report.record(
            f"serializability: witness-order replay ({name})",
            reference.state_digest() == setup.database.state_digest(),
            f"{len(result.committed)} committed of {len(batch)}",
        )


def check_recovery(report: ValidationReport, seed: int = 13) -> None:
    """Snapshot + log replay reproduces the pre-crash state."""
    db, registry, generator, config = _setup(seed)
    engine = LTPGEngine(db, registry, config)
    snapshot = Snapshot.capture(db, batch_index=0)
    engine.run_transactions(generator.make_batch(3 * 512), max_batches=3)
    expected = db.state_digest()

    recovered, rec_report = recover(
        snapshot,
        engine.batch_log,
        lambda database: LTPGEngine(database, registry, config),
    )
    ok = rec_report.final_digest == expected
    report.record(
        "recovery: snapshot + log replay",
        ok,
        f"{rec_report.batches_replayed} batches replayed",
    )


def run_validation() -> ValidationReport:
    report = ValidationReport()
    check_determinism(report)
    check_serializability(report)
    check_recovery(report)
    return report


def main(argv: list[str] | None = None) -> int:
    report = run_validation()
    print(report.format())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
