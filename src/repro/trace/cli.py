"""Command-line driver: ``python -m repro.trace [options]``.

Runs one of the benchmark workloads with ``LTPGConfig.trace`` enabled
and writes the captured span tree as Chrome ``trace_event`` JSON — open
the file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``
to see batch pipelining across streams.  The engine is built with
``LTPGConfig.pipelined`` by default, so the h2d / compute / d2h legs land
on three distinct stream tracks and aborts retry two batches later (pass
``--no-pipeline`` for the single-stream view).

Exit codes: ``0`` — trace captured and written; ``2`` — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.workload import WORKLOAD_NAMES, build_workload
from repro.core.stats import RunStats
from repro.trace.metrics import MetricsRegistry
from repro.trace.tracer import Tracer, validate_nesting
from repro.txn.batch import BatchScheduler

EXIT_OK = 0
EXIT_USAGE = 2

DEFAULT_BATCHES = 4
DEFAULT_BATCH_SIZE = 512


def capture(
    workload: str = "tpcc",
    batches: int = DEFAULT_BATCHES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
    pipelined: bool = True,
) -> tuple[Tracer, MetricsRegistry, RunStats]:
    """Run ``batches`` traced batches of a workload; returns the tracer,
    the populated metrics registry and the run's aggregate stats."""
    setup = build_workload(workload, seed=seed)
    engine = setup.engine(batch_size=batch_size, trace=True, pipelined=pipelined)
    scheduler = BatchScheduler(batch_size)
    scheduler.admit(setup.generator.make_batch(batches * batch_size))
    run = engine.process(scheduler, max_batches=batches)
    assert engine.tracer is not None and engine.metrics is not None
    return engine.tracer, engine.metrics, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description=(
            "Capture a Chrome trace_event JSON trace (batch/phase/kernel "
            "spans over the simulated GPU clock) plus a metrics snapshot "
            "from a traced workload run."
        ),
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        default="tpcc",
        help="workload to drive the engine with (default: tpcc)",
    )
    parser.add_argument(
        "--out",
        default="trace.json",
        help="trace_event JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="also write the metrics snapshot as JSON to this path",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=DEFAULT_BATCHES,
        help=f"batches to trace (default: {DEFAULT_BATCHES})",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help=f"transactions per batch (default: {DEFAULT_BATCH_SIZE})",
    )
    parser.add_argument(
        "--no-pipeline",
        action="store_true",
        help="run all work on one stream instead of the h2d/compute/d2h "
        "pipeline",
    )
    parser.add_argument("--seed", type=int, default=7)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve it.
        return int(exc.code or 0)
    if args.batches <= 0 or args.batch_size <= 0:
        print("error: --batches and --batch-size must be positive",
              file=sys.stderr)
        return EXIT_USAGE

    tracer, metrics, run = capture(
        workload=args.workload,
        batches=args.batches,
        batch_size=args.batch_size,
        seed=args.seed,
        pipelined=not args.no_pipeline,
    )
    problems = validate_nesting(tracer)
    if problems:  # defensive: monotone stream clocks should preclude this
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
    tracer.write(args.out)
    print(
        f"wrote {args.out}: {len(tracer.spans)} spans on "
        f"{len(tracer.tracks())} stream track(s), "
        f"{len(tracer.async_spans)} batch envelope(s), "
        f"{len(tracer.flows) // 2} flow arrow(s) "
        f"[{run.num_batches} batches, {run.total_committed} committed]"
    )
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(metrics.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_out}")
    print(metrics.render())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
