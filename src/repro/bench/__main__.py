"""Command-line driver: ``python -m repro.bench <experiment> [options]``.

Experiments: table2 table3 table4 table5 table6 table7 table8 table9
fig6a fig6b fig7 ablations fullmix sweep calibration wallclock serve all.

``all`` runs every paper experiment and writes ``BENCH_paper.json``
into the current directory; ``wallclock`` and ``serve`` write their own
files.  ``--scale N`` divides batch and item-table sizes by N
(contention ratios are preserved; see EXPERIMENTS.md).  ``--scale 1``
reproduces the paper's full configuration and can take hours in pure
Python.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import paper, serve, wallclock
from repro.xp import BACKEND_NAMES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument("experiment", choices=[*paper.SPECS, "wallclock", "serve", "all"])
    parser.add_argument(
        "--scale",
        type=float,
        default=8.0,
        help="divide batch/item sizes by this factor (1 = paper scale)",
    )
    parser.add_argument(
        "--rounds", type=int, default=paper.DEFAULT_ROUNDS, help="measured batches per cell"
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_NAMES,
        help="add a batched[<backend>] column to the wallclock sweep "
        "(repro.xp backend name)",
    )
    args = parser.parse_args(argv)
    names = list(paper.SPECS) if args.experiment == "all" else [args.experiment]
    results = {}
    for name in names:
        start = time.time()
        if name == "wallclock":
            # Host wall-clock (not simulated time); writes BENCH_wallclock.json.
            result = wallclock.run_and_write(
                scale=args.scale, rounds=args.rounds, backend=args.backend
            )
            print(result.format())
        elif name == "serve":
            # End-to-end client latency through the async ingress
            # (virtual clock, deterministic); writes BENCH_serve.json.
            print(serve.run_and_write(scale=args.scale, rounds=args.rounds).format())
        else:
            results[name] = paper.run(name, args.scale, args.rounds)
            print(paper.format_records(paper.SPECS[name], results[name]))
        print(f"[{name}: {time.time() - start:.1f}s wall]\n")
    if args.experiment == "all":
        paper.write("BENCH_paper.json", results, args.scale, args.rounds)
        print("wrote BENCH_paper.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
