"""Command line driver: ``python -m repro.analysis <pass> [options]``.

Passes: ``racecheck`` ``memcheck`` ``detlint`` ``kernellint`` ``all``.

Exit-code conventions (shared with ``scripts/run_analysis.py``):

* ``0`` — every requested pass ran and reported zero findings.
* ``1`` — at least one finding (race, out-of-bounds access,
  determinism hazard).
* ``2`` — usage error (unknown pass/workload, bad arguments).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.passes import run_pass
from repro.analysis.workload import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_BATCHES,
    WORKLOAD_NAMES,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "GPU sanitizer (racecheck + memcheck) for the SIMT simulator "
            "and a determinism linter for stored procedures."
        ),
    )
    parser.add_argument(
        "pass_name",
        metavar="pass",
        choices=("racecheck", "memcheck", "detlint", "kernellint", "all"),
        help="which analysis to run",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        default="tpcc",
        help="workload to drive the engine with (default: tpcc)",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=DEFAULT_BATCHES,
        help=f"sanitized batches to run (default: {DEFAULT_BATCHES})",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help=f"transactions per batch (default: {DEFAULT_BATCH_SIZE})",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write the findings as a JSON document",
    )
    parser.add_argument(
        "--sarif-out",
        metavar="PATH",
        default=None,
        help="also write the findings as a SARIF 2.1.0 log",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve it.
        return int(exc.code or 0)
    if args.batches <= 0 or args.batch_size <= 0:
        print("error: --batches and --batch-size must be positive",
              file=sys.stderr)
        return EXIT_USAGE
    results = run_pass(
        args.pass_name,
        workload=args.workload,
        batches=args.batches,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    findings = 0
    for result in results:
        print(result.render())
        findings += len(result.report)
    if args.json_out or args.sarif_out:
        from repro.analysis import emit  # noqa: PLC0415 (optional output)

        if args.json_out:
            emit.write_json(args.json_out, results)
        if args.sarif_out:
            emit.write_sarif(args.sarif_out, results)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
