#!/usr/bin/env python
"""Analysis gate: run the GPU sanitizer and determinism linter.

Thin wrapper over ``python -m repro.analysis`` that works from a source
checkout without installing the package.  By default runs every pass
(racecheck, memcheck, detlint, kernellint) over every workload and
fails if any finding surfaces.

Exit codes (shared with ``python -m repro.analysis``):

* ``0`` — every pass on every workload reported zero findings.
* ``1`` — at least one finding (race, out-of-bounds access,
  determinism hazard).
* ``2`` — usage error.

Examples::

    python scripts/run_analysis.py                      # everything
    python scripts/run_analysis.py racecheck            # one pass, all workloads
    python scripts/run_analysis.py all --workload tpcc  # one workload
    python scripts/run_analysis.py --pass kernellint --sarif-out lint.sarif
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)


def main(argv: list[str] | None = None) -> int:
    from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
    from repro.analysis.passes import run_pass
    from repro.analysis.workload import (
        DEFAULT_BATCH_SIZE,
        DEFAULT_BATCHES,
        WORKLOAD_NAMES,
    )

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    pass_choices = ("racecheck", "memcheck", "detlint", "kernellint", "all")
    parser.add_argument(
        "pass_name",
        metavar="pass",
        nargs="?",
        default=None,
        choices=pass_choices,
        help="which analysis to run (default: all)",
    )
    parser.add_argument(
        "--pass",
        dest="pass_opt",
        metavar="PASS",
        choices=pass_choices,
        default=None,
        help="alias for the positional pass argument (CI convenience)",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        default=None,
        help="restrict to one workload (default: run every workload)",
    )
    parser.add_argument("--batches", type=int, default=DEFAULT_BATCHES)
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write every run's findings as one JSON document",
    )
    parser.add_argument(
        "--sarif-out",
        metavar="PATH",
        default=None,
        help="write every run's findings as one SARIF 2.1.0 log",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.pass_name and args.pass_opt and args.pass_name != args.pass_opt:
        print(
            "error: positional pass and --pass disagree",
            file=sys.stderr,
        )
        return EXIT_USAGE
    pass_name = args.pass_name or args.pass_opt or "all"
    if args.batches <= 0 or args.batch_size <= 0:
        print(
            "error: --batches and --batch-size must be positive",
            file=sys.stderr,
        )
        return EXIT_USAGE

    workloads = (args.workload,) if args.workload else WORKLOAD_NAMES
    findings = 0
    all_results = []
    for workload in workloads:
        for result in run_pass(
            pass_name,
            workload=workload,
            batches=args.batches,
            batch_size=args.batch_size,
            seed=args.seed,
        ):
            print(result.render())
            findings += len(result.report)
            all_results.append(result)
    if args.json_out or args.sarif_out:
        from repro.analysis import emit

        if args.json_out:
            emit.write_json(args.json_out, all_results)
        if args.sarif_out:
            emit.write_sarif(args.sarif_out, all_results)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
