#!/usr/bin/env python
"""Gates on the bench artifacts: every gate is a row of :data:`GATES`.

:func:`walk` prints ``name: measured ... vs bound ... -> OK/FAIL`` per
row of the named gates and exits 1 if any failed::

    python scripts/check_wallclock.py schema   # the committed files only
    python scripts/check_wallclock.py device   # mockgpu ledger, any host
    python scripts/check_wallclock.py execute  # host wall clock (-m perf)

``BENCH_serve.json`` is on the virtual clock, so CI regenerates it
(``python -m repro.bench serve``) and diffs it instead.
"""

from __future__ import annotations

import json
import operator
import os
import sys
from collections.abc import Callable
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, os.fspath(ROOT / "src"))

GATE_BATCH = 4096  # 2^12
EXECUTE_KEY = f"seconds_per_batch.batched.{GATE_BATCH}.execute"

#: Batches the execute gate times; the per-phase minimum is the estimator,
#: and the committed cells take the same number.  On a busy shared host
#: fewer rounds let the min wander (identical code has spanned 290-410 ms
#: at three rounds and 39-49 ms at eight), so the gate takes more samples
#: rather than a wider factor: the limit stays as strict on the true cost.
EXECUTE_ROUNDS = 16

#: A device holds the snapshot, so steady-state H2D per batch must be
#: op-proportional (parameters, conflict registration, write-back
#: scatters), never whole columns: TXN_PARAM_BYTES per transaction is the
#: parameter upload (~18 int64 fields of a group's ParamColumns, gathered
#: from the batch's command block), the factor the other
#: streams.  The budget does not scale with the database, and bites with
#: no second mode to compare: the same stream against a database four
#: times the size must cost the same H2D to within TRANSFER_SPREAD, which
#: a per-batch column upload would not (the old shipped-copy layout took
#: 26.21 MB against this 6.55 MB at 4 warehouses; see EXPERIMENTS.md).
TXN_PARAM_BYTES = 160
PARAMS_BUDGET_FACTOR = 10
TRANSFER_WAREHOUSES = (4, 16)
TRANSFER_SPREAD = 0.02


def measure_device() -> dict:
    """Per-phase ledger deltas (and ``total``) of one steady-state batch
    against each of :data:`TRANSFER_WAREHOUSES`; the scheduled stream is
    generated over the smallest one's warehouses whatever the database,
    so a byte that moves is the database's."""
    from repro.bench import ltpg_config, tpcc_bench
    from repro.bench.wallclock import driven
    from repro.txn import BatchScheduler
    from repro.workloads.tpcc import TpccGenerator, TpccScale

    doc: dict = {}
    for warehouses in TRANSFER_WAREHOUSES:
        bench = tpcc_bench(warehouses, neworder_pct=50, batch_size=GATE_BATCH, seed=7)
        scale = TpccScale(TRANSFER_WAREHOUSES[0], bench.generator.scale.num_items)
        generator = TpccGenerator(scale, mix=bench.generator.mix, seed=7)
        with bench.engine(ltpg_config(GATE_BATCH, array_backend="mockgpu")) as engine:
            next(driven(engine, BatchScheduler(GATE_BATCH), generator.make_batch))
            phases = {**engine.last_phase_transfers, "total": engine.last_transfers}
        doc[str(warehouses)] = phases
        for phase, delta in phases.items():
            print(f"  {warehouses} warehouses, {phase}: {json.dumps(delta)}")
    small, large = (doc[str(w)]["total"]["h2d_bytes"] for w in TRANSFER_WAREHOUSES)
    return {**doc, "h2d_spread": abs(large - small) / max(small, 1)}


def measure_execute() -> dict:
    from repro.bench import wallclock

    cell = wallclock.measure_path(GATE_BATCH, rounds=EXECUTE_ROUNDS)
    return {"seconds_per_batch": {"batched": {str(GATE_BATCH): cell}}}


#: Gate name -> the measurement its rows read; ``schema`` runs nothing,
#: it reads the committed artifacts.
MEASURE: dict[str, Callable[[], dict]] = dict(
    schema=lambda: {
        name: json.loads((ROOT / f"BENCH_{name}.json").read_text())
        for name in ("wallclock", "serve")
    },
    device=measure_device, execute=measure_execute,
)

#: Keys the docs promise, as dotted paths; ``*`` is "every child, and
#: at least one", ``{a,b}`` a fixed set of children.  Documented in
#: EXPERIMENTS.md "Host wall-clock" / "Small batches" / "Transfer traffic
#: under mockgpu" and docs/ARCHITECTURE.md §2, §7, §8, §9.
WALLCLOCK_SCHEMA = (
    "batch_sizes",
    "meta.{cpu_count,rounds,scale,seed,warehouses,workload,estimator}",
    "meta.{warmup_batches,python,numpy,platform}",
    "meta.array_backend.{backend,library,version}",
    "seconds_per_batch.{columnar,batched,batched[mockgpu]}.*.{execute,conflict,"
    "writeback,assemble,total,commit_rate,attempts_per_commit}",
    "seconds_per_batch.{columnar,batched,batched[mockgpu]}.*.{route,log,cut,requeue}",
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
    "meta.{clock,arrival_seed,scale}",
    "rows.*.{workload,policy,requests,committed,batches,mean_batch,retries}",
    "rows.*.{goodput_mtps,p50_us,p95_us,p99_us,queue_p99_us,shed_pct}",
)


def _schema_problems(node, path: str, where: str, seen: set[str]) -> list[str]:
    """Where ``path`` (see :data:`WALLCLOCK_SCHEMA`) is missing or
    empty under ``node``; every key it names goes into ``seen``."""
    head, _, rest = path.partition(".")
    if head == "*":
        keys = list(range(len(node)) if isinstance(node, list) else node)
        problems = [] if keys else [f"{where}: empty"]
    else:
        keys = head.strip("{}").split(",")
        problems = [f"{where}.{key}: missing" for key in keys if key not in node]
        keys = [key for key in keys if key in node]
    for key in keys:
        child, here = node[key], f"{where}.{key}"
        seen.add(here)
        if child is None or (isinstance(child, (dict, list, str)) and not child):
            problems.append(f"{here}: empty")
        elif rest:
            problems += _schema_problems(child, rest, here, seen)
    return problems


def documents(doc: dict, schema: tuple[str, ...]) -> list[str]:
    """Every ``schema`` path present and non-empty, and no key (at the root
    or one level into a dict) no entry names: a stale file's dead column."""
    seen: set[str] = set()
    problems = [p for path in schema for p in _schema_problems(doc, path, "", seen)]
    keys = [f".{key}" for key in doc]
    keys += [f".{k}.{c}" for k, v in doc.items() if isinstance(v, dict) for c in v]
    return problems + [f"{key}: not documented" for key in keys if key not in seen]


def covers(what: str):
    """Columns (name -> size -> ...) missing an entry for a bound size."""
    return lambda columns, sizes: [
        f".{column}: no entry for {what}(s) {', '.join(gone)}"
        for column, by_size in columns.items()
        if (gone := sorted({str(s) for s in sizes} - set(by_size), key=int))
    ]


def no_cell_commits(paths: dict, rate: float) -> list[str]:
    """Cells (path -> size -> ...) whose commit rate is the bound."""
    return [
        f".{path}.{size}: commit_rate {rate} (no conflicts)"
        for path, by_size in paths.items()
        for size, cell in by_size.items() if cell.get("commit_rate") == rate
    ]


def not_only(reasons: dict, bound: str) -> list[str]:
    """Abort reasons that are the bound alone: nothing lost a conflict."""
    return [f": only {bound} aborts (no conflicts)"] if set(reasons) == {bound} else []


_H2D_BUDGET = GATE_BATCH * TXN_PARAM_BYTES * PARAMS_BUDGET_FACTOR
#: (name, measurement, dotted key, comparator, bound) rows.  A comparator
#: returns True/False or its problems (each the rest of a line that starts
#: with the key); a callable bound reads the committed files via ``read``.
#: The last two schema rows catch a sweep timed on lanes without TIDs:
#: nothing can lose a conflict, so every lane commits, only logic aborts.
GATES: tuple[tuple, ...] = (
    ("BENCH_wallclock.json keys", "schema", "wallclock", documents, WALLCLOCK_SCHEMA),
    ("BENCH_serve.json keys", "schema", "serve", documents, SERVE_SCHEMA),
    ("transfer ledger covers every batch size", "schema",
     "wallclock.transfers_per_batch", covers("batch size"),
     lambda read: read("schema", "wallclock.batch_sizes")),
    ("small batches cover every lane count", "schema",
     "wallclock.small_batch.ms_per_batch", covers("lane count"),
     lambda read: read("schema", "wallclock.small_batch.lanes")),
    ("no swept cell commits every lane", "schema", "wallclock.seconds_per_batch",
     no_cell_commits, 1.0),
    ("aborts include conflicts", "schema", "wallclock.metrics.abort_reasons",
     not_only, "logic"),
    *((f"implicit syncs @ {w} warehouses", "device", f"{w}.total.implicit_syncs",
       operator.eq, 0) for w in TRANSFER_WAREHOUSES),
    *((f"steady H2D bytes @ {w} warehouses", "device", f"{w}.total.h2d_bytes",
       operator.le, _H2D_BUDGET) for w in TRANSFER_WAREHOUSES),
    ("H2D spread across sizes", "device", "h2d_spread", operator.le, TRANSFER_SPREAD),
    (f"execute seconds @ batch {GATE_BATCH} (1.30 x committed)", "execute", EXECUTE_KEY,
     operator.le, lambda read: 1.30 * read("schema", f"wallclock.{EXECUTE_KEY}")),
)


def _show(value) -> str:
    if isinstance(value, (dict, list, tuple)):
        return f"{len(value)} entries"
    return format(value, {int: ",", float: ".4g"}.get(type(value), ""))


def walk(names, docs: dict[str, dict] | None = None) -> int:
    """Run every row of the named gates and return 1 if any failed; ``docs``
    stands in for measurements (fabricated numbers, an edited artifact)."""
    docs = dict(docs or {})

    def read(measure: str, key: str):
        if measure not in docs:
            docs[measure] = MEASURE[measure]()
        return reduce(operator.getitem, key.split("."), docs[measure])

    failed = set()
    for name, measure, key, compare, bound in GATES:
        if measure not in names:
            continue
        try:
            value = read(measure, key)
            bound = bound(read) if callable(bound) else bound
            found = compare(value, bound)
            line = f"measured {_show(value)} vs bound {_show(bound)}"
        except (OSError, LookupError, TypeError, ValueError) as exc:
            found, line = [f": missing or malformed ({exc!r})"], "unreadable"
        if not isinstance(found, list):
            found = [] if found else [f": {value!r} against {bound!r}"]
        print(f"{name}: {line} -> {'FAIL' if found else 'OK'}")
        print("".join(f"  {key}{problem}\n" for problem in found), end="")
        failed |= {measure} if found else set()
    if "schema" in failed:
        print("regenerate the artifact or correct the docs: they must agree")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    if not names or not set(names) <= set(MEASURE):
        print(f"usage: check_wallclock.py {{{','.join(MEASURE)}}}...", file=sys.stderr)
        return 2
    return walk(names)


if __name__ == "__main__":
    sys.exit(main())
