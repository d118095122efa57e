"""Command-line driver: ``python -m repro.bench <experiment> [options]``.

Experiments: table2 table3 table4 table5 table6 table7 table8 table9
fig6a fig6b fig7 ablations fullmix sweep calibration wallclock serve all.

``--scale N`` divides batch and item-table sizes by N (contention
ratios are preserved; see EXPERIMENTS.md).  ``--scale 1`` reproduces
the paper's full configuration and can take hours in pure Python.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import (
    ablations,
    calibration,
    fig6,
    fig7,
    fullmix,
    serve,
    sweep,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    wallclock,
)
from repro.xp import BACKEND_NAMES


def _runners(scale: float, rounds: int, backend: str | None = None):
    return {
        "table2": lambda: table2.run(scale=scale, rounds=rounds),
        "table3": lambda: table3.run(scale=scale, rounds=rounds),
        "table4": lambda: table4.run(scale=scale, rounds=rounds),
        "table5": lambda: table5.run(scale=scale, rounds=rounds),
        "table6": lambda: table6.run(scale=scale, rounds=rounds),
        "table7": lambda: table7.run(),
        "table8": lambda: table8.run(scale=scale),
        "table9": lambda: table9.run(scale=max(scale, 16.0), rounds=min(rounds, 2)),
        "fig6a": lambda: fig6.run_a(scale=scale, rounds=rounds),
        "fig6b": lambda: fig6.run_b(scale=scale, rounds=rounds),
        "fig7": lambda: fig7.run(scale=scale, rounds=min(rounds, 3)),
        "ablations": lambda: ablations.run(scale=scale, rounds=rounds),
        "fullmix": lambda: fullmix.run(scale=scale, rounds=rounds),
        "calibration": lambda: calibration.run(scale=scale, rounds=rounds),
        "sweep": lambda: sweep.run(scale=scale, rounds=rounds),
        # Host wall-clock (not simulated time); writes BENCH_wallclock.json.
        "wallclock": lambda: wallclock.run_and_write(
            scale=scale, rounds=rounds, backend=backend
        ),
        # End-to-end client latency through the async ingress (virtual
        # clock, deterministic); writes BENCH_serve.json.
        "serve": lambda: serve.run_and_write(scale=scale, rounds=rounds),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument("experiment", help="table2..table9, fig6a, fig6b, fig7, ablations, fullmix, sweep, calibration, wallclock, serve, all")
    parser.add_argument(
        "--scale",
        type=float,
        default=8.0,
        help="divide batch/item sizes by this factor (1 = paper scale)",
    )
    parser.add_argument(
        "--rounds", type=int, default=4, help="measured batches per cell"
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_NAMES,
        help="add a batched[<backend>] column to the wallclock sweep "
        "(repro.xp backend name)",
    )
    args = parser.parse_args(argv)
    runners = _runners(args.scale, args.rounds, args.backend)
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        if name not in runners:
            parser.error(f"unknown experiment {name!r}; choose from {list(runners)}")
        start = time.time()
        result = runners[name]()
        print(result.format())
        print(f"[{name}: {time.time() - start:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
