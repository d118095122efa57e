"""Generality: running a workload LTPG has never seen, with no
pre-declared read/write sets.

Run:  python examples/smallbank_generality.py

The paper's central claim against GaccO/GPUTx is that LTPG "can process
transactions directly without pre-processing", because deterministic
*optimistic* concurrency control discovers conflicts at run time.  This
example registers the six SmallBank procedures — conditional branches,
cross-account moves, logic aborts — and processes them straight away,
then sweeps account skew to show where optimism starts paying aborts.
"""

from __future__ import annotations

from repro.bench import steady_state_run
from repro.core import LTPGConfig, LTPGEngine
from repro.workloads.smallbank import build_smallbank

ACCOUNTS = 20_000
BATCH = 2_048


def main() -> None:
    print(f"SmallBank: {ACCOUNTS:,} accounts, batch {BATCH}, six procedures\n")
    print(f"{'zipf alpha':>10}  {'throughput':>12}  {'commit rate':>11}  "
          f"{'logic aborts/batch':>18}")
    for alpha in (0.0, 0.5, 1.0, 1.5):
        db, registry, generator = build_smallbank(
            ACCOUNTS, zipf_alpha=alpha, seed=7
        )
        engine = LTPGEngine(db, registry, LTPGConfig(batch_size=BATCH))
        r = steady_state_run(engine, generator, BATCH, 4)
        logic = sum(b.logic_aborted for b in r.run.batches) / r.run.num_batches
        print(f"{alpha:>10.1f}  {r.mtps:9.2f} M/s  {r.commit_rate:10.1%}  "
              f"{logic:>18.1f}")

    print("\nNo read/write sets were declared anywhere: the engine learned")
    print("every conflict from the conflict log at run time (the paper's")
    print("versatility argument versus dependency-graph systems).")


if __name__ == "__main__":
    main()
