"""YCSB under extreme skew: how delayed commutative updates rescue an
update-heavy workload that plain deterministic OCC cannot sustain.

Run:  python examples/ycsb_contention.py

With the paper's Zipfian exponent (alpha = 2.5) roughly three quarters
of all key draws hit the single hottest record.  Plain read-modify-write
updates then allow only one commit per batch; routing updates through
LTPG's delayed-update path (commutative ADDs merged at write-back)
restores full throughput.  The example sweeps alpha to show where the
collapse begins.
"""

from __future__ import annotations

from repro.bench import steady_state_run
from repro.core import LTPGConfig, LTPGEngine
from repro.workloads.ycsb import build_ycsb, ycsb_delayed_columns

RECORDS = 20_000
BATCH = 1_024


def run(workload: str, alpha: float, commutative: bool) -> tuple[float, float]:
    db, registry, gen = build_ycsb(
        RECORDS,
        workload=workload,
        zipf_alpha=alpha,
        seed=7,
        commutative_updates=commutative,
    )
    config = LTPGConfig(
        batch_size=BATCH,
        delayed_columns=ycsb_delayed_columns() if commutative else frozenset(),
        hot_tables=frozenset({"usertable"}),
    )
    engine = LTPGEngine(db, registry, config)
    r = steady_state_run(engine, gen, BATCH, 3)
    return r.mtps, r.commit_rate


def main() -> None:
    print(f"YCSB-A, {RECORDS:,} records, batch {BATCH}\n")
    print(f"{'alpha':>6}  {'plain RMW updates':>24}  {'delayed commutative':>24}")
    for alpha in (0.0, 0.8, 1.5, 2.5):
        plain = run("a", alpha, commutative=False)
        delayed = run("a", alpha, commutative=True)
        print(
            f"{alpha:>6.1f}  {plain[0]:8.2f} M/s @ {plain[1]:6.1%}"
            f"        {delayed[0]:8.2f} M/s @ {delayed[1]:6.1%}"
        )
    print(
        "\nAt alpha = 2.5 the hottest key absorbs ~75% of operations: "
        "plain OCC commits collapse, delayed updates do not."
    )


if __name__ == "__main__":
    main()
