#!/usr/bin/env python3
"""The repo's benchmark: served, wall-clock, closed-loop.

One run of one workload (what the benchmark driver calls)::

    python3 perf/run.py --workload tpcc_sat --seed 7 --seconds 10 --trace 0

Requests generated from ``--seed`` go through ``repro.serve.Orchestrator``
on a real asyncio loop, one process, one thread: set-up, warm-up, then a
measured window of ``--seconds`` seconds that ends on a batch boundary,
an untimed drain, and the output checks of ``verify.py``.  Every metric
is printed by name with its unit; the last line of standard output is
the result as one JSON object.  ``--trace 1`` splits the window in
thirds — plain, traced with the hooks of ``tracing.py`` installed, plain
— and reports the per-layer metrics instead.

Without ``--workload`` every workload runs (``--repeat N`` times), each
run in a process of its own, and ``perf/out/`` receives the reports plus
``latest.json`` for ``compare.py``; with ``--trace`` each workload is
then run once more traced.  All runs of a workload must form the same
sequence of batches.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

OUT = os.path.join(HERE, "out")
#: Serving that has not closed its last window by then, or a drain that
#: has not finished, is stuck rather than slow; with set-up before them
#: the process still ends inside the driver's 180 s.
RUN_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 30.0
#: Python salts ``str`` hashes per process, which reorders every set and
#: dict of names in the program: six runs of one seed of smallbank_hot
#: spanned 16.5-21.3 k commit/s salted and 18.5-19.8 k pinned.  The salt
#: is noise the program does not choose, so the command pins it.
HASH_SEED = "0"


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict:
    """One full run of one workload; returns its report."""
    t_begin = time.perf_counter()
    # imported here so that setup_s, which starts at t_begin, pays for it
    import numpy

    import metrics
    import verify
    from harness import ClosedLoop, Window
    from hostclock import NOMINAL_UNIT_S, HostClock
    from repro.serve import Orchestrator
    from tracing import Tracer
    from workloads import WORKLOADS, request_chunks

    # nothing is left out of the clock yet, so t_begin is a reading of it
    host = HostClock()
    host.sample()
    workload = WORKLOADS[name]
    sizes = workload.sizes(scale)
    db, registry, generator = workload.build(sizes.data, seed)
    engine, dropped = workload.engine(db, registry, sizes.batch_size)
    orch = Orchestrator(engine, policy=workload.policy(sizes.batch_size))

    host.sample()
    t_built = host.now()
    pool = request_chunks(generator, 2 * sizes.clients + sizes.warmup)
    host.sample()
    t_generated = host.now()
    make_batch_us = float(
        numpy.diff(host.host_seconds([t_built, t_generated]))[0] / len(pool) * 1e6
    )
    # the pool must never tax the program's garbage collector
    gc.collect()
    gc.freeze()

    tracer = Tracer() if trace else None
    if trace:
        # plain, traced, plain: the traced third is judged against the
        # mean of its neighbours, which cancels a steady drift
        windows = [
            Window(seconds / 3, False),
            Window(seconds / 3, True),
            Window(seconds / 3, False),
        ]
    else:
        windows = [Window(seconds, False)]
    loop = ClosedLoop(
        orch, generator, pool, sizes.clients, sizes.warmup, windows, host, tracer
    )
    t_serve = host.now()
    try:
        asyncio.run(loop.run(RUN_TIMEOUT_S, DRAIN_TIMEOUT_S))
        t_drained = host.now()
        # a run whose first window never opened timed out above
        opened = loop.window_opened_at
        # Process start -> window open.  Generating the top-up is left
        # out of the clock (the requests in flight must not be billed
        # for it) and put back here, at the speed the host then had.
        top_up_s = loop.top_up_s
        setup_raw = opened - t_begin + top_up_s
        setup_s = float(
            numpy.diff(host.host_seconds([t_begin, opened]))[0]
            + top_up_s * host.speed(t_serve, opened)
        )

        plain = windows[0]
        rss_mb = metrics.rss_mb_after(plain, sizes.floor_tps * plain.seconds)
        report = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "scale": scale,
            "traced": trace,
            "meta": {
                "config_dropped": dropped,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": os.cpu_count(),
            },
            "counts": {
                "posted": loop.posted,
                "completed": loop.completed,
                "committed": loop.committed,
                "logic_aborted": loop.logic_aborted,
                "failed": loop.failed,
                "shed": loop.shed,
                "unresolved": loop.unresolved,
                "lost": loop.failed + loop.shed + loop.unresolved,
                "batches": len(orch.batch_records),
                "refills": loop.refills,
                "generated_s": loop.generated_s,
                "warmup_completions_per_s": loop.warmup_rate,
                "latency_samples": len(plain.done_at),
                "window_wall_s": [w.wall for w in windows],
                "window_cycles": [w.cycles for w in windows],
            },
            # the same run on the wall clock, and what the host did to it
            "raw": {
                **metrics.timed(plain, None),
                "setup_s": setup_raw,
                "peak_rss_mb_at_exit": metrics.rss_mb_after(plain, float("inf")),
            },
            "host": {
                "nominal_unit_ms": NOMINAL_UNIT_S * 1e3,
                "unit_ms_median": statistics.median(host.unit) * 1e3,
                "samples": len(host.unit),
                "speed_setup": host.speed(t_begin, opened),
                "speed_windows": [
                    host.speed(w.marks[0].t, w.marks[-1].t) for w in windows
                ],
            },
            "segments": {
                "cycle_wall_s": [
                    round(b.t - a.t, 6)
                    for a, b in zip(plain.marks, plain.marks[1:])
                ],
                "cycle_committed": [
                    b.committed - a.committed
                    for a, b in zip(plain.marks, plain.marks[1:])
                ],
                "commit_tps": metrics.segment_tps(plain, host),
                "latency_p50_ms": metrics.segment_latency_ms(plain, 50, host),
                "latency_p99_ms": metrics.segment_latency_ms(plain, 99, host),
                "commit_rate": metrics.segment_commit_rates(orch, plain),
            },
            # every batch of the run, warm-up included: the evidence
            # that the window opened in steady state
            "commit_rate_per_batch": [
                round(s.commit_rate, 4) for s in orch.run_stats.batches
            ],
            # batches formed after the driver stopped posting depend on
            # where it stopped, so the chain ends with the last window
            "batch_chain": verify.batch_chain(
                orch.run_stats.batches[: windows[-1].marks[-1].stats]
            ),
        }
        if tracer is None:
            report["metrics"] = metrics.end_to_end(
                orch, plain, host, setup_s, rss_mb
            )
        else:
            report["metrics"] = metrics.per_layer(
                orch, windows, host, tracer, make_batch_us
            )
            report["missing_hooks"] = list(tracer.missing)

        problems = verify.check_books(loop, orch)
        problems += verify.check_serial_replay(workload, sizes, seed)
        report["problems"] = problems
        report["stage_s"] = {
            "build": t_built - t_begin,
            "generate": t_serve - t_built,
            "warmup_and_top_up": opened - t_serve + top_up_s,
            "windows_and_drain": t_drained - opened,
            "verify": host.now() - t_drained,
        }
    finally:
        engine.close()

    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.write_chrome(
            os.path.join(OUT, f"trace_{name}.json"),
            {"workload": name, "seed": seed, "scale": scale},
        )
    return report


def result_line(report: dict) -> str:
    """The contract's last line.  It carries numbers only, so a metric
    whose hook is missing reads 0 there (and ``trace.missing_hooks``
    counts it); the report file keeps ``null``."""
    counts = report["counts"]
    shown = {
        name: {"value": 0 if m["value"] is None else m["value"], "unit": m["unit"]}
        for name, m in report["metrics"].items()
    }
    return json.dumps({
        "correct": not report["problems"],
        "attempted": counts["posted"],
        "failed": counts["lost"],
        "metrics": shown,
    })


def print_report(report: dict) -> None:
    counts = report["counts"]
    kind = "traced" if report["traced"] else "plain"
    print(f"== {report['workload']} seed={report['seed']} ({kind}, "
          f"{report['scale']}) ==")
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {metric['unit']}")
    print(f"  latency_samples {counts['latency_samples']}  batches "
          f"{counts['batches']}  posted {counts['posted']}  committed "
          f"{counts['committed']}  failed {counts['lost']}")
    print("  segment commit_rate "
          + " ".join(f"{r:.4f}" for r in report["segments"]["commit_rate"]))
    if report["meta"]["config_dropped"]:
        print(f"  config_dropped {report['meta']['config_dropped']}")
    for path in report.get("missing_hooks", ()):
        print(f"  MISSING HOOK {path}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED {problem}")
    print(f"  checks: {'FAILED' if report['problems'] else 'ok'}")


def save_report(report: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    kind = "traced" if report["traced"] else "plain"
    path = os.path.join(OUT, f"{report['workload']}_{kind}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    return path


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each run in its own process; writes ``latest.json``
    (``values[workload][metric]`` is the list of that metric over the
    ``--repeat`` runs) for ``compare.py``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    values: dict[str, dict[str, list]] = {name: {} for name in names}
    chains: dict[str, list[str]] = {}
    for name in names:
        for traced in [0] * args.repeat + ([1] if args.trace else []):
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(traced),
                "--scale", args.scale,
            ]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(done.stdout.rstrip().rpartition("\n")[0], flush=True)
            if done.returncode:
                status = 1
                continue
            kind = "traced" if traced else "plain"
            with open(os.path.join(OUT, f"{name}_{kind}.json")) as fh:
                report = json.load(fh)
            for metric, m in report["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
            # Same seed, same requests: every run must form the same
            # batches with the same outcomes for as long as both ran —
            # and tracing must not change that.
            chain = report["batch_chain"]
            known = chains.setdefault(name, chain)
            common = min(len(known), len(chain))
            if known[common - 1] != chain[common - 1]:
                print(f"  DETERMINISM FAILED: this {kind} run of {name} "
                      f"diverges from the first within {common} batches")
                status = 1
            elif known is not chain:
                print(f"  determinism: first {common} batches identical "
                      f"to the first run's")
    with open(os.path.join(OUT, "latest.json"), "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "scale": args.scale, "values": values,
                   "batch_chain": chains}, fh, indent=1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="plain runs per workload when running all")
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Same process, started over with str hashing pinned.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.workload is None:
        return run_all(args)
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print_report(report)
    save_report(report)
    print(result_line(report))
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
