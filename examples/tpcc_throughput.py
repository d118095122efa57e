"""TPC-C throughput across transaction mixes, plus the optimization
ablation — a miniature of the paper's Table II / Fig 6(b).

Run:  python examples/tpcc_throughput.py [scale]

``scale`` divides the paper's batch (16384) and item-table (100000)
sizes; default 16 keeps the run under a minute.
"""

from __future__ import annotations

import sys

from repro.bench import ltpg_config, scaled, steady_state_run, tpcc_bench
from repro.workloads.tpcc import TpccMix


def main(scale: float = 16.0) -> None:
    print(f"TPC-C on LTPG (1/{scale:g} of paper scale, 8 warehouses)\n")

    print(f"{'mix':>18}  {'throughput':>12}  {'commit rate':>11}  {'latency':>9}")
    for pct, label in [(100, "100% NewOrder"), (50, "50/50 mixed"), (0, "100% Payment")]:
        bench = tpcc_bench(8, neworder_pct=pct, scale=scale)
        engine = bench.engine(ltpg_config(bench.batch_size))
        r = steady_state_run(engine, bench.generator, bench.batch_size, 4)
        print(
            f"{label:>18}  {r.mtps:9.2f} M/s  {r.commit_rate:10.1%}  "
            f"{r.mean_latency_us:7.0f} us"
        )

    print("\nOptimization ablation (50/50 mix):")
    base_mtps = None
    for label, configure in [
        ("unenhanced", lambda c: c.without_optimizations()),
        ("all optimizations", lambda c: c),
    ]:
        bench = tpcc_bench(8, neworder_pct=50, scale=scale)
        config = configure(ltpg_config(bench.batch_size))
        engine = bench.engine(config)
        r = steady_state_run(engine, bench.generator, bench.batch_size, 4)
        if base_mtps is None:
            base_mtps = r.mtps
        print(
            f"  {label:>18}: {r.mtps:7.2f} M/s "
            f"({r.mtps / base_mtps:.2f}x), commit {r.commit_rate:.1%}"
        )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 16.0)
