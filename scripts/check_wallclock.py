#!/usr/bin/env python
"""Perf gate: fail if the execute phase regressed vs BENCH_wallclock.json.

Measures the default engine's execute-phase host time at batch 2^12
(full-scale TPC-C 50/50, the committed baseline's ``batched`` column)
and exits non-zero if it exceeds the committed number by more than the
allowed factor (default 1.30, i.e. a >30%% regression).  The conflict
phase rides along informationally but only the execute phase gates —
it is the largest phase of a batch and the one the vectorized twins
exist to accelerate.

Wall-clock gates are machine-dependent; the committed baseline and a CI
runner differ in absolute speed, so the gate can also be pointed at a
locally regenerated baseline::

    python benchmarks/bench_wallclock.py          # rewrite the baseline
    python scripts/check_wallclock.py             # gate against it

Opt-in from pytest via the ``perf`` marker: ``pytest -m perf``.

The array-backend gate runs next, on ``mockgpu`` (``--backend`` names
another ``repro.xp`` backend): the batched path is measured through it
(informational) and the last measured batch's transfer ledger is
checked for contract violations (zero implicit host round-trips inside
kernel phases — this part gates; strict mockgpu raises on a float
upcast).  ``--quick`` drops the
machine-dependent wall-clock gates and runs only the backend and serve
gates, which is what CI uses (``--quick --transfer-ceiling``).

``--schema`` runs nothing and times nothing: it only checks that every
key EXPERIMENTS.md and docs/ARCHITECTURE.md document for
``BENCH_wallclock.json`` and ``BENCH_serve.json`` is present in the
committed files and not empty (a documented-but-empty key is how an
artifact rots without any gate noticing), then exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

GATE_BATCH = 4096  # 2^12
DEFAULT_ALLOWED_FACTOR = 1.30

#: Measured batches per check; the per-phase minimum over them is the
#: estimator.  On a busy shared host three rounds is not enough for the
#: min to converge (identical code has been observed spanning 290-410 ms
#: round to round), so the gate takes more samples rather than a wider
#: allowed factor — the limit stays equally strict on the true cost.
DEFAULT_ROUNDS = 8

def check(
    baseline_path: str,
    allowed_factor: float = DEFAULT_ALLOWED_FACTOR,
    rounds: int = DEFAULT_ROUNDS,
) -> int:
    from repro.bench import wallclock

    with open(baseline_path) as fh:
        baseline = json.load(fh)
    try:
        base = baseline["seconds_per_batch"]["batched"][str(GATE_BATCH)]
    except KeyError:
        print(
            f"error: {baseline_path} has no batched batch-{GATE_BATCH} entry; "
            "regenerate it with: python benchmarks/bench_wallclock.py"
        )
        return 2
    measured = wallclock.measure_path(GATE_BATCH, scale=1.0, rounds=rounds)
    limit = base["execute"] * allowed_factor
    status = "OK" if measured["execute"] <= limit else "FAIL"
    print(
        f"execute phase @ batch {GATE_BATCH}: measured "
        f"{measured['execute'] * 1e3:.1f} ms, baseline "
        f"{base['execute'] * 1e3:.1f} ms, limit {limit * 1e3:.1f} ms "
        f"(x{allowed_factor:.2f}) -> {status}"
    )
    print(
        f"conflict phase (informational): measured "
        f"{measured['conflict'] * 1e3:.2f} ms, baseline "
        f"{base['conflict'] * 1e3:.2f} ms"
    )
    if status == "FAIL":
        print(
            "execute-phase host time regressed by more than "
            f"{(allowed_factor - 1) * 100:.0f}% over the committed baseline"
        )
        return 1
    return 0


def check_backend(backend: str, rounds: int = DEFAULT_ROUNDS) -> int:
    """Gate the array-backend path: measure the batched sweep through
    the ``repro.xp`` backend (informational — mockgpu pays bookkeeping
    overhead by design) and verify the device contract on the last
    measured batch's transfer ledger (this part gates: zero implicit
    host round-trips inside kernel phases; a float upcast raises out of
    the measurement itself, mockgpu being strict)."""
    from repro.bench import wallclock

    reference = wallclock.measure_path(GATE_BATCH, scale=1.0, rounds=rounds)
    phases: dict[str, dict[str, int]] = {}
    through = wallclock.measure_path(
        GATE_BATCH, scale=1.0, rounds=rounds, backend=backend,
        transfers_out=phases,
    )
    ratio = through["total"] / max(reference["total"], 1e-12)
    print(
        f"batched total @ batch {GATE_BATCH} via {backend}: "
        f"{through['total'] * 1e3:.1f} ms vs numpy "
        f"{reference['total'] * 1e3:.1f} ms (x{ratio:.2f}, informational)"
    )
    ledger = {
        key: sum(delta[key] for delta in phases.values())
        for key in phases["execute"]
    }
    print(
        f"transfer ledger (steady-state batch): {ledger['h2d_bytes']} B h2d / "
        f"{ledger['d2h_bytes']} B d2h in {ledger['count']} transfers, "
        f"{ledger['dispatches']} dispatches, "
        f"{ledger['implicit_syncs']} implicit syncs"
    )
    if ledger["implicit_syncs"]:
        print(
            f"backend contract violated on {backend}: implicit host "
            "round-trips inside the hot path"
        )
        return 1
    return 0


#: Transfer-ceiling gate (``--transfer-ceiling``): on a device backend
#: the snapshot is resident, so the steady-state per-batch H2D traffic
#: must be op-proportional — transaction parameters, conflict
#: registration and write-back scatters — never whole-column
#: round-trips.  The budget is expressed per transaction:
#: TXN_PARAM_BYTES approximates the parameter-column upload per
#: transaction (ParamColumns ships ~18 int64 fields) and the factor
#: covers the other op-proportional streams (registration keys/tids,
#: write-back rows/values, grow-driven re-uploads).  The budget does
#: NOT scale with database size, and the gate shows that it bites
#: without a second mode to compare against: the same stream against a
#: database four times the size must cost the same H2D to within
#: TRANSFER_GATE_SPREAD (a scheduled stream's batches depend on its
#: contention, so it is the stream that is held fixed — see
#: :func:`_steady_transfers`).  Any per-batch column upload creeping
#: back in scales with the tables and trips it (the shipped-copy layout
#: this repo used to offer measured 26.21 MB against this 6.55 MB
#: budget at 4 warehouses; EXPERIMENTS.md keeps the table).
TXN_PARAM_BYTES = 160
PARAMS_BUDGET_FACTOR = 10
TRANSFER_GATE_WAREHOUSES = (4, 16)
TRANSFER_GATE_SPREAD = 0.02


def _steady_transfers(
    backend: str, warehouses: int, batch_size: int
) -> dict[str, int]:
    """The ledger deltas of one steady-state batch against a database
    of ``warehouses`` warehouses.  The *stream* is the same whatever
    the database: a generator over the smallest gate database's
    warehouses, scheduled (TIDs assigned, aborts re-queued), so
    contention, verdicts and op counts cannot move with the database
    and a byte that does is the database's.  The warm-up absorbs the
    initial and first-touch uploads; mockgpu's ledger is deterministic,
    so the gate reproduces exactly on any host."""
    from repro.bench import ltpg_config, tpcc_bench
    from repro.bench.wallclock import driven
    from repro.workloads.tpcc import TpccGenerator, TpccScale

    bench = tpcc_bench(
        warehouses, neworder_pct=50, batch_size=batch_size, seed=7
    )
    generator = TpccGenerator(
        TpccScale(TRANSFER_GATE_WAREHOUSES[0], bench.generator.scale.num_items),
        mix=bench.generator.mix, seed=7,
    )
    with bench.engine(ltpg_config(batch_size, array_backend=backend)) as engine:
        next(driven(engine, batch_size, generator.make_batch))
        return engine.last_transfers


def check_transfer_ceiling(backend: str, batch_size: int = GATE_BATCH) -> int:
    """Gate what residency is for: the steady-state per-batch H2D bytes
    stay within the op-proportional (params-only) budget, and do not
    move with the size of the database — which a per-batch column
    round-trip would, so the gate would catch its return."""
    small, large = TRANSFER_GATE_WAREHOUSES
    h2d = {
        warehouses: _steady_transfers(backend, warehouses, batch_size)["h2d_bytes"]
        for warehouses in TRANSFER_GATE_WAREHOUSES
    }
    budget = batch_size * TXN_PARAM_BYTES * PARAMS_BUDGET_FACTOR
    within = max(h2d.values()) <= budget
    spread = abs(h2d[large] - h2d[small]) / max(h2d[small], 1)
    flat = spread <= TRANSFER_GATE_SPREAD
    print(
        f"transfer ceiling @ batch {batch_size} ({backend}): steady H2D "
        f"{h2d[small] / 1e6:.2f} MB at {small} warehouses, "
        f"{h2d[large] / 1e6:.2f} MB at {large}, budget "
        f"{budget / 1e6:.2f} MB ({TXN_PARAM_BYTES} B/txn x "
        f"{PARAMS_BUDGET_FACTOR}) -> {'OK' if within else 'FAIL'}"
    )
    print(
        f"  spread across database sizes {spread * 100:.2f}% (limit "
        f"{TRANSFER_GATE_SPREAD * 100:.0f}%: op-proportional, not "
        f"database-proportional) -> {'OK' if flat else 'FAIL'}"
    )
    if not within or not flat:
        print(
            "steady-state H2D exceeds the params-only budget or grows "
            "with the database: a per-batch column round-trip crept back in"
        )
        return 1
    return 0


#: Serve gate tolerance: measured p99 may exceed the committed baseline
#: by at most this factor (and goodput may fall below baseline by it).
#: Serve numbers are virtual-clock and deterministic — identical code
#: reproduces the baseline *exactly* on any host — so unlike the
#: wall-clock gates the headroom only absorbs deliberate cost-model
#: changes, not machine noise.  A trip means either a real serving
#: regression or an intentional change that should regenerate the
#: baseline (python -m repro.bench serve).
SERVE_FACTOR = 1.25


def check_serve(
    baseline_path: str, factor: float = SERVE_FACTOR
) -> int:
    """Gate end-to-end serve latency: re-run the gate cell (deadline
    policy on TPC-C, open loop, virtual clock) and hold p99 latency and
    goodput to the committed ``BENCH_serve.json`` within ``factor``."""
    from repro.bench import serve

    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        base = next(
            r for r in baseline["rows"]
            if r["workload"] == serve.GATE_WORKLOAD
            and r["policy"] == serve.GATE_POLICY
        )
    except (OSError, KeyError, StopIteration):
        print(
            f"error: {baseline_path} has no "
            f"({serve.GATE_WORKLOAD}, {serve.GATE_POLICY}) row; regenerate "
            "it with: python -m repro.bench serve"
        )
        return 2
    requests = baseline.get("meta", {}).get("requests_per_cell", 512)
    row = serve.measure_cell(
        serve.GATE_WORKLOAD, serve.GATE_POLICY, requests=requests
    )
    p99_limit = base["p99_us"] * factor
    goodput_floor = base["goodput_mtps"] / factor
    p99_ok = row["p99_us"] <= p99_limit
    goodput_ok = row["goodput_mtps"] >= goodput_floor
    status = "OK" if p99_ok and goodput_ok else "FAIL"
    print(
        f"serve p99 ({serve.GATE_WORKLOAD}/{serve.GATE_POLICY}, "
        f"{requests} reqs): measured {row['p99_us']:.1f} us, baseline "
        f"{base['p99_us']:.1f} us, limit {p99_limit:.1f} us "
        f"(x{factor:.2f}) -> {'OK' if p99_ok else 'FAIL'}"
    )
    print(
        f"serve goodput: measured {row['goodput_mtps']:.4f} Mtps, "
        f"baseline {base['goodput_mtps']:.4f} Mtps, floor "
        f"{goodput_floor:.4f} Mtps -> {'OK' if goodput_ok else 'FAIL'}"
    )
    if status == "FAIL":
        print(
            "end-to-end serve latency/goodput regressed vs the committed "
            "BENCH_serve.json (virtual clock: this is deterministic, not "
            "noise); if the change is intentional, regenerate the "
            "baseline with: python -m repro.bench serve"
        )
        return 1
    return 0


#: Keys the docs promise, as dotted paths; ``*`` is "every child, and
#: at least one", ``{a,b}`` a fixed set of children.  Documented in
#: EXPERIMENTS.md "Host wall-clock" / "Small batches" / "Transfer traffic
#: under mockgpu" and docs/ARCHITECTURE.md §2, §7, §8, §9.
WALLCLOCK_SCHEMA = (
    "batch_sizes",
    "meta.{cpu_count,rounds,scale,seed,warehouses,workload}",
    "meta.{estimator,warmup_batches}",
    "meta.{python,numpy,platform}",
    "meta.array_backend.{backend,library,version}",
    "seconds_per_batch.{columnar,batched,batched[mockgpu]}.*"
    ".{execute,conflict,writeback,assemble,total}",
    "seconds_per_batch.{columnar,batched,batched[mockgpu]}.*"
    ".{commit_rate,attempts_per_commit}",
    "speedup_execute_total.*.{execute,total}",
    "small_batch.{workload,warehouses,rounds,batches_per_round,lanes}",
    "small_batch.ms_per_batch.{per_transaction,batched}.*",
    "small_batch.speedup_batched.*",
    "metrics.{abort_reasons,atomic,conflict_log,reschedule_depth,warp}",
    "transfers_per_batch.*.*.{execute,conflict,writeback}",
)

#: EXPERIMENTS.md "End-to-end serve latency", docs/ARCHITECTURE.md §12.
SERVE_SCHEMA = (
    "meta.{arrival_rate_per_s,batch_size,max_wait_us,requests_per_cell,seed}",
    "meta.{clock,arrival_seed,scale,python,platform}",
    "rows.*.{workload,policy,requests,committed,batches,mean_batch,retries}",
    "rows.*.{goodput_mtps,p50_us,p95_us,p99_us,queue_p99_us,shed_pct}",
)


def _schema_problems(node, path: str, where: str = "") -> list[str]:
    """Where ``path`` (see :data:`WALLCLOCK_SCHEMA`) is missing or
    empty under ``node``."""
    head, _, rest = path.partition(".")
    if head == "*":
        children = node if isinstance(node, list) else list(node.values())
        keys = range(len(node)) if isinstance(node, list) else list(node)
        if not children:
            return [f"{where or '<root>'}: empty"]
        picked = list(zip(keys, children))
    else:
        names = head.strip("{}").split(",")
        missing = [n for n in names if not isinstance(node, dict) or n not in node]
        if missing:
            return [f"{where + '.' if where else ''}{n}: missing" for n in missing]
        picked = [(n, node[n]) for n in names]
    problems = []
    for key, child in picked:
        here = f"{where}.{key}" if where else str(key)
        if child is None or (
            isinstance(child, (dict, list, str)) and len(child) == 0
        ):
            problems.append(f"{here}: empty")
        elif rest:
            if isinstance(child, (dict, list)):
                problems += _schema_problems(child, rest, here)
            else:
                problems.append(f"{here}: not a container")
    return problems


def _undocumented(doc: dict, schema: tuple[str, ...]) -> list[str]:
    """Keys of ``doc`` no schema entry names, at the root and under
    every root key whose entries all spell their children out — what a
    removed column leaves behind in a file that was not regenerated."""
    named: dict[str, set[str] | None] = {}
    for entry in schema:
        head, _, rest = entry.partition(".")
        second = rest.partition(".")[0]
        if second in ("", "*"):
            named[head] = None
        elif named.setdefault(head, set()) is not None:
            named[head].update(second.strip("{}").split(","))
    problems = [f"{key}: not documented" for key in doc if key not in named]
    for head, children in named.items():
        if children is not None and isinstance(doc.get(head), dict):
            problems += [
                f"{head}.{key}: not documented"
                for key in doc[head] if key not in children
            ]
    return problems


def _uncovered(columns: dict, wanted, what: str, where: str) -> list[str]:
    """Columns of ``columns`` (name -> {size: ...}) that lack an entry
    for one of the ``wanted`` sizes."""
    sizes = {str(size) for size in wanted}
    problems = []
    for column, by_size in columns.items():
        gone = sorted(sizes - set(by_size), key=int)
        if gone:
            problems.append(
                f"{where}.{column}: no entry for {what}(s) {', '.join(gone)}"
            )
    return problems


def _conflict_free(doc: dict) -> list[str]:
    """How a sweep that timed lanes without TIDs is recognised, should
    one ever be written again: nothing in such a batch can lose a
    conflict, so every lane commits and the only aborts are the
    procedures' own."""
    problems = [
        f"seconds_per_batch.{path}.{size}: commit_rate 1.0 (no conflicts)"
        for path, by_size in doc.get("seconds_per_batch", {}).items()
        for size, cell in by_size.items()
        if cell.get("commit_rate") == 1.0
    ]
    if set(doc.get("metrics", {}).get("abort_reasons", {})) == {"logic"}:
        problems.append("metrics.abort_reasons: only logic aborts (no conflicts)")
    return problems


def check_schema(wallclock_path: str, serve_path: str) -> int:
    """Every documented key of both committed artifacts is present and
    non-empty, no key is there that the docs do not describe, the
    transfer ledger covers every batch-size column, the small-batch
    section every lane count, and the sweep was measured on a stream
    with conflicts in it."""
    rc = 0
    for path, schema in (
        (wallclock_path, WALLCLOCK_SCHEMA),
        (serve_path, SERVE_SCHEMA),
    ):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"schema: cannot read {path}: {exc}")
            rc = 1
            continue
        problems = [p for entry in schema for p in _schema_problems(doc, entry)]
        problems += _undocumented(doc, schema)
        if schema is WALLCLOCK_SCHEMA:
            problems += _uncovered(
                doc.get("transfers_per_batch", {}), doc.get("batch_sizes", ()),
                "batch size", "transfers_per_batch",
            )
            small = doc.get("small_batch", {})
            problems += _uncovered(
                small.get("ms_per_batch", {}), small.get("lanes", ()),
                "lane count", "small_batch.ms_per_batch",
            )
            problems += _conflict_free(doc)
        name = os.path.basename(path)
        if problems:
            rc = 1
            print(f"schema: {name}: {len(problems)} key(s) disagree with the docs")
            for problem in problems[:20]:
                print(f"  {problem}")
            if len(problems) > 20:
                print(f"  ... and {len(problems) - 20} more")
        else:
            print(f"schema: {name}: OK ({len(schema)} documented paths)")
    if rc:
        print(
            "regenerate with: python benchmarks/bench_wallclock.py / "
            "python -m repro.bench serve — or correct the docs; they must agree"
        )
    return rc


def main(argv: list[str] | None = None) -> int:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--baseline",
        default=os.path.join(root, "BENCH_wallclock.json"),
        help="baseline JSON (default: the committed BENCH_wallclock.json)",
    )
    parser.add_argument(
        "--allowed-factor",
        type=float,
        default=DEFAULT_ALLOWED_FACTOR,
        help="fail when measured > baseline * this (default 1.30)",
    )
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help="measured batches (min is taken)",
    )
    parser.add_argument(
        "--backend", default="mockgpu",
        help="repro.xp backend for the array-backend and transfer gates "
        "(default: mockgpu, the device contract checker)",
    )
    parser.add_argument(
        "--skip-backend", action="store_true",
        help="skip the array-backend contract gate",
    )
    parser.add_argument(
        "--transfer-ceiling", action="store_true",
        help="gate the device backend's steady-state per-batch H2D "
        "against the op-proportional (params-only) budget, at two "
        "database sizes (deterministic; CI runs this with --quick)",
    )
    parser.add_argument(
        "--serve-baseline",
        default=os.path.join(root, "BENCH_serve.json"),
        help="serve baseline JSON (default: the committed BENCH_serve.json)",
    )
    parser.add_argument(
        "--serve-factor", type=float, default=SERVE_FACTOR,
        help="fail when serve p99 > baseline * this or goodput < "
        f"baseline / this (default {SERVE_FACTOR}; virtual-clock, "
        "so deterministic on any host)",
    )
    parser.add_argument(
        "--skip-serve", action="store_true",
        help="skip the end-to-end serve latency gate",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the machine-dependent wall-clock gates and run only "
        "the backend + serve gates at reduced rounds (the CI "
        "configuration; both are machine-independent)",
    )
    parser.add_argument(
        "--schema", action="store_true",
        help="only check that every documented key of the two committed "
        "artifacts is present and non-empty (no measurement; safe on "
        "any runner)",
    )
    args = parser.parse_args(argv)
    if args.schema:
        return check_schema(args.baseline, args.serve_baseline)
    rc = 0
    if not args.quick:
        rc = check(args.baseline, args.allowed_factor, args.rounds)
    if rc == 0 and not args.skip_backend:
        rc = check_backend(args.backend, 2 if args.quick else args.rounds)
    if rc == 0 and args.transfer_ceiling:
        rc = check_transfer_ceiling(args.backend)
    if rc == 0 and not args.skip_serve:
        rc = check_serve(args.serve_baseline, args.serve_factor)
    return rc


if __name__ == "__main__":
    sys.exit(main())
