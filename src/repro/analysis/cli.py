"""Command line driver: ``python -m repro.analysis <pass> [options]``.

Passes: ``detlint`` (the static determinism lint over every registered
procedure and batched twin, plus the dynamic replay twin over a
generated sample) and ``all``, which runs every pass.  The other
invariants the paper's correctness argument rests on are checked at
run time instead — ``BatchResult.serial_order()``, witness-order replay
(``python -m repro.validate``), the conformance lattice, mockgpu's
strict kernel phase and the goldens; tests/test_oracle_catches.py is
the table of which catches what.

Exit codes:

* ``0`` — every requested pass ran and reported zero findings.
* ``1`` — at least one finding (a determinism hazard).
* ``2`` — usage error (unknown pass/workload, bad arguments).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass

from repro.analysis.detlint import Finding, lint_registry, replay_transactions
from repro.analysis.workload import (
    DEFAULT_BATCH_SIZE,
    WORKLOAD_NAMES,
    build_workload,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

PASS_NAMES = ("detlint",)


@dataclass
class AnalysisResult:
    """Outcome of one pass over one workload."""

    pass_name: str
    workload: str
    findings: list[Finding]
    procedures_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self, limit: int = 50) -> str:
        lines = [
            f"[{self.pass_name}] workload={self.workload}"
            f" procedures={self.procedures_checked}"
        ]
        if self.clean:
            lines.append("clean: 0 findings")
            return "\n".join(lines)
        counts = Counter(f.kind for f in self.findings)
        parts = ", ".join(f"{k}={c}" for k, c in sorted(counts.items()))
        lines.append(f"{len(self.findings)} findings: {parts}")
        lines += ["  " + f.describe() for f in self.findings[:limit]]
        if len(self.findings) > limit:
            lines.append(f"  ... and {len(self.findings) - limit} more")
        return "\n".join(lines)


def run_detlint(
    workload: str = "tpcc",
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
    dynamic: bool = True,
) -> AnalysisResult:
    """Lint every registered procedure; optionally replay a sample."""
    setup = build_workload(workload, seed=seed)
    findings: list[Finding] = lint_registry(setup.registry)
    if dynamic:
        sample = setup.generator.make_batch(batch_size)
        findings.extend(
            replay_transactions(setup.database, setup.registry, sample)
        )
    return AnalysisResult(
        "detlint", workload, findings, len(setup.registry.names())
    )


def run_pass(
    pass_name: str,
    workload: str = "tpcc",
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
) -> list[AnalysisResult]:
    """Dispatch one pass (or ``all``); returns one result per pass run."""
    if pass_name not in PASS_NAMES + ("all",):
        raise ValueError(
            f"unknown pass {pass_name!r}; expected one of "
            f"{PASS_NAMES + ('all',)}"
        )
    return [run_detlint(workload, batch_size=batch_size, seed=seed)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism linter for stored procedures and their twins.",
    )
    parser.add_argument(
        "pass_name",
        metavar="pass",
        choices=PASS_NAMES + ("all",),
        help="which analysis to run",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        default="tpcc",
        help="workload whose procedures to lint (default: tpcc)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help=f"transactions generated for the replay sample (default: {DEFAULT_BATCH_SIZE})",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve it.
        return int(exc.code or 0)
    if args.batch_size <= 0:
        print("error: --batch-size must be positive", file=sys.stderr)
        return EXIT_USAGE
    results = run_pass(
        args.pass_name,
        workload=args.workload,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    for result in results:
        print(result.render())
    clean = all(result.clean for result in results)
    return EXIT_CLEAN if clean else EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
