"""The paper's evaluation (Section VI) as data: one spec table, one
runner, one pivot formatter.

Every experiment — Tables II–IX, Figs 6–7, the ablations, the contention
sweep, the full mix and the calibration anchors — is a :class:`Spec` in
:data:`SPECS`.  A spec names its axes in the paper's order, builds one
cell's workload and engine, measures columns on the finished run, says
which key parts print as rows, columns and blocks, and states the
paper's who-wins shape as one predicate over the records.

:func:`run` walks a spec's cells, each on a fresh setup, and returns
records ``(key, {column: value})``; :func:`format_records` pivots them
into the printed table; :func:`write` stores every spec's records in
``BENCH_paper.json`` (``python -m repro.bench all``).

A cell is :func:`steady_state_run`: the paper measures TPS by running
"5,000 transaction batches back-to-back" at a fixed batch size, aborts
merging into later (still full) batches, so every round tops the
scheduler up with fresh load and throughput is committed work over
simulated time.  ``scale`` divides the batch and the item-table size
*together*, preserving the contention ratios (``E = T/D``, the stock
birthday-collision rate) the commit rates depend on; ``scale=1`` is the
paper's full configuration.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.baselines import make_engine
from repro.core.config import LTPGConfig, MemoryMode
from repro.core.engine import LTPGEngine
from repro.core.stats import RunStats
from repro.errors import BenchmarkError
from repro.gpusim.atomics import collision_profile
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.gpusim.kernel import LaunchGeometry
from repro.storage.database import Database
from repro.txn.batch import BatchScheduler, drive
from repro.txn.procedures import ProcedureRegistry
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    HOT_TABLES,
    SPLIT_COLUMNS,
    TpccGenerator,
    TpccMix,
    build_tpcc,
    tpcc_nbytes,
)
from repro.workloads.tpcc.schema import TpccScale
from repro.workloads.ycsb import build_ycsb, ycsb_delayed_columns

#: The paper's headline configuration.
PAPER_BATCH = 16_384
PAPER_ITEMS = 100_000

#: Default measured batches per cell (the paper runs 5,000; the
#: simulated clock has no warm-up noise to average away).
DEFAULT_ROUNDS = 4


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """``value / scale`` with a floor, for contention-preserving scaling."""
    return max(minimum, int(round(value / scale)))


def ltpg_config(batch_size: int, **overrides) -> LTPGConfig:
    """An LTPG configuration with the TPC-C optimization markings."""
    defaults = dict(
        batch_size=batch_size,
        delayed_columns=DELAYED_COLUMNS,
        split_columns=SPLIT_COLUMNS,
        hot_tables=HOT_TABLES,
    )
    defaults.update(overrides)
    return LTPGConfig(**defaults)


@dataclass
class TpccBench:
    """One ready-to-run TPC-C setup."""

    database: Database
    registry: ProcedureRegistry
    generator: TpccGenerator
    batch_size: int

    def engine(
        self, config: LTPGConfig | None = None, device: Device | None = None
    ) -> LTPGEngine:
        return LTPGEngine(
            self.database,
            self.registry,
            config or ltpg_config(self.batch_size),
            device=device,
        )


def tpcc_bench(
    warehouses: int,
    neworder_pct: int = 50,
    batch_size: int = PAPER_BATCH,
    scale: float = 1.0,
    seed: int = 7,
    num_items: int = PAPER_ITEMS,
) -> TpccBench:
    """Build a scaled TPC-C benchmark setup."""
    batch = scaled(batch_size, scale, minimum=32)
    items = scaled(num_items, scale, minimum=512)
    db, registry, generator = build_tpcc(
        warehouses=warehouses,
        num_items=items,
        mix=TpccMix.neworder_percentage(neworder_pct),
        seed=seed,
    )
    return TpccBench(db, registry, generator, batch)


@dataclass(frozen=True)
class SteadyStateResult:
    """Aggregated outcome of a steady-state run."""

    run: RunStats
    #: device wall-clock of the whole run; under batch-to-batch
    #: pipelining this is less than the sum of per-batch latencies
    makespan_ns: float = 0.0
    #: metrics-registry snapshot when the engine ran with
    #: ``LTPGConfig.trace`` (None on untraced runs)
    metrics: dict | None = None

    @property
    def tps(self) -> float:
        if self.makespan_ns > 0:
            return self.run.total_committed / (self.makespan_ns * 1e-9)
        return self.run.throughput_tps

    @property
    def mtps(self) -> float:
        """Throughput in the paper's 10^6 TXs/s unit (makespan-based,
        so overlapped pipeline batches are not double-counted)."""
        return self.tps / 1e6

    @property
    def commit_rate(self) -> float:
        return self.run.mean_commit_rate

    @property
    def mean_latency_us(self) -> float:
        return self.run.mean_latency_ns / 1e3

    @property
    def mean_transfer_us(self) -> float:
        if not self.run.batches:
            return 0.0
        total = sum(b.transfer_ns for b in self.run.batches)
        return total / len(self.run.batches) / 1e3


def steady_state_run(
    engine,
    generator,
    batch_size: int,
    num_batches: int,
) -> SteadyStateResult:
    """Run ``num_batches`` full batches; retries merge with fresh load.

    ``engine`` is an :class:`LTPGEngine` or a
    :class:`~repro.baselines.base.BaselineEngine`.  LTPG retries after
    its configured delay and is clocked by its device's makespan; a
    baseline retries in the next batch, returns bare ``BatchStats`` and
    is clocked by the sum of its batch latencies.
    """
    if num_batches <= 0:
        raise BenchmarkError("need at least one batch")
    scheduler = BatchScheduler(batch_size)
    run = RunStats()
    if not isinstance(engine, LTPGEngine):
        for stats in drive(engine, scheduler, generator.make_batch, num_batches):
            run.add(stats)
        return SteadyStateResult(run=run)
    start_ns = engine.device.elapsed_ns()
    for result in drive(engine, scheduler, generator.make_batch, num_batches):
        run.add(result.stats)
    makespan = engine.device.elapsed_ns() - start_ns
    metrics = engine.metrics.snapshot() if engine.metrics is not None else None
    return SteadyStateResult(run=run, makespan_ns=makespan, metrics=metrics)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str = "",
) -> str:
    """Render a fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    header_line = "  ".join(h.rjust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(note)
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_metrics(summary: dict, title: str = "Observability metrics") -> str:
    """Render a :meth:`RunStats.metrics_summary` block as text.

    The summary is grouped (``{"atomic": {...}, "warp": {...}, ...}``);
    each group becomes ``group.key  value`` rows so a traced bench run
    prints its contention diagnostics under the main result table.
    """
    rows = []
    for group, values in summary.items():
        if isinstance(values, dict):
            for key, value in values.items():
                rows.append([f"{group}.{key}", value])
        else:
            rows.append([group, values])
    return format_table(title, ["metric", "value"], rows)


#: Every workload generator and database loader is seeded with this.
SEED = 7

Key = tuple
Record = tuple[Key, dict[str, Any]]
#: a :class:`SteadyStateResult` attribute, or ``f(result, engine)``
Column = str | Callable[[SteadyStateResult, Any], Any]


@dataclass(frozen=True)
class Spec:
    """One experiment of the paper's evaluation."""

    name: str
    title: str
    #: ``(axis, values)`` in the paper's order; ``values`` may be a
    #: function of the key parts before it (a grid that is not a product)
    axes: tuple[tuple[str, Any], ...]
    #: measured on each finished steady-state run
    columns: dict[str, Column] = field(default_factory=dict)
    #: ``setup(*key, scale=...) -> (engine, generator, batch_size)``,
    #: LTPG or a baseline, built from nothing for every cell
    setup: Callable[..., tuple] | None = None
    #: replaces the steady-state walk: ``measure(keys, scale, rounds)``
    measure: Callable[[list[Key], float, int], list[Record]] | None = None
    rows: tuple[str, ...] = ()
    cols: tuple[str, ...] = ()
    block: str | None = None
    #: measured batches per cell, from the requested count
    rounds: Callable[[Key, int], int] = lambda key, rounds: rounds
    min_scale: float = 0.0
    #: the paper's own value of ``paper_column`` where the code has it
    paper: dict[Key, float] = field(default_factory=dict)
    paper_column: str = ""
    #: asserts the paper's who-wins shape on ``{key: values}`` at a scale
    shape: Callable[[dict[Key, dict], float], None] = lambda m, scale: None


# -- the runner ---------------------------------------------------------


def keys(spec: Spec, **axes) -> list[Key]:
    """The spec's cells in the paper's order, ``axes`` replacing values."""
    unknown = set(axes) - {name for name, _ in spec.axes}
    if unknown:
        raise BenchmarkError(f"{spec.name} has no axis {sorted(unknown)}")
    out: list[Key] = [()]
    for name, values in spec.axes:
        values = axes.get(name, values)
        out = [k + (v,) for k in out for v in (values(*k) if callable(values) else values)]
    return out


def run(name: str, scale: float = 8.0, rounds: int = DEFAULT_ROUNDS, **axes) -> list[Record]:
    """Run every cell of experiment ``name``; ``axes`` narrow or replace
    an axis's values (``run("table2", system=("ltpg", "gacco"))``)."""
    if name not in SPECS:
        raise BenchmarkError(f"unknown experiment {name!r}; choose from {list(SPECS)}")
    spec = SPECS[name]
    scale = max(scale, spec.min_scale)
    cells = keys(spec, **axes)
    if spec.measure is not None:
        return spec.measure(cells, scale, rounds)
    return [(key, _cell(spec, key, scale, rounds)) for key in cells]


def _cell(spec: Spec, key: Key, scale: float, rounds: int) -> dict[str, Any]:
    engine, generator, batch_size = spec.setup(*key, scale=scale)
    r = steady_state_run(engine, generator, batch_size, spec.rounds(key, rounds))
    return {
        c: getattr(r, f) if isinstance(f, str) else f(r, engine)
        for c, f in spec.columns.items()
    }


def write(path: str, results: dict[str, list[Record]], scale: float, rounds: int) -> None:
    """``BENCH_paper.json``: ``meta``, then per experiment one record per
    line — byte-stable for a given scale, rounds and seed."""
    parts = [f' "meta": {json.dumps({"scale": scale, "rounds": rounds, "seed": SEED})}']
    for name, records in results.items():
        axes = [a for a, _ in SPECS[name].axes]
        lines = (json.dumps({**dict(zip(axes, k)), **v}) for k, v in records)
        parts.append(f' "{name}": [\n  ' + ",\n  ".join(lines) + "\n ]")
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(parts) + "\n}\n")


def load(path: str) -> tuple[dict, dict[str, list[Record]]]:
    """``(meta, records per experiment)`` back from :func:`write`."""
    with open(path) as f:
        doc = json.load(f)
    meta, out = doc.pop("meta"), {}
    for name, flat in doc.items():
        axes = [a for a, _ in SPECS[name].axes]
        out[name] = [
            (
                tuple(tuple(r[a]) if isinstance(r[a], list) else r[a] for a in axes),
                {c: v for c, v in r.items() if c not in axes},
            )
            for r in flat
        ]
    return meta, out


# -- the formatter ------------------------------------------------------


def _label(value: Any) -> str:
    return "/".join(map(str, value)) if isinstance(value, tuple) else str(value)


def format_records(spec: Spec, records: list[Record]) -> str:
    """Pivot records into paper-shaped tables, one per value of
    ``spec.block``: the ``rows`` key parts label the lines and the
    ``cols`` key parts the columns, a cell joining its measured values;
    without ``cols`` each measured value gets a column, without ``rows``
    a line."""
    names = [a for a, _ in spec.axes]

    def part(key: Key, axes) -> str:
        return "/".join(_label(key[names.index(a)]) for a in axes)

    blocks: dict[str, dict[str, dict[str, list[str]]]] = {}
    for key, values in records:
        grid = blocks.setdefault(part(key, (spec.block,)) if spec.block else "", {})
        for c, x in values.items():
            row = part(key, spec.rows) if spec.rows else c
            col = part(key, spec.cols) if spec.cols else (c if spec.rows else "value")
            grid.setdefault(row, {}).setdefault(col, []).append(_fmt(x))
    out = []
    for label, grid in blocks.items():
        cols = list(dict.fromkeys(c for line in grid.values() for c in line))
        out.append(
            format_table(
                f"{spec.title} — {spec.block} {label}" if label else spec.title,
                ["/".join(spec.rows) or "metric", *cols],
                [[r, *(", ".join(line.get(c, [])) for c in cols)] for r, line in grid.items()],
                note="cell = " + ", ".join(records[0][1]) if spec.rows and spec.cols else "",
            )
        )
    return "\n\n".join(out)


# -- one cell, from nothing ---------------------------------------------


def _tpcc(warehouses, scale, pct=50, batch=PAPER_BATCH, system="ltpg", optimized=True, **change):
    """A fresh scaled TPC-C cell: LTPG with the TPC-C markings (minus the
    optimizations unless ``optimized``, then ``change``), or a baseline."""
    bench = tpcc_bench(warehouses, neworder_pct=pct, batch_size=batch, scale=scale, seed=SEED)
    if system != "ltpg":
        engine = make_engine(system, bench.database, bench.registry)
        return engine, bench.generator, bench.batch_size
    config = ltpg_config(bench.batch_size)
    if not optimized:
        config = config.without_optimizations()
    engine = bench.engine(dataclasses.replace(config, **change))
    return engine, bench.generator, bench.batch_size


def _ycsb(records: int, workload: str, batch: int, **kwargs):
    db, registry, generator = build_ycsb(records, workload=workload, seed=SEED, **kwargs)
    config = LTPGConfig(
        batch_size=batch,
        delayed_columns=ycsb_delayed_columns(),
        hot_tables=frozenset({"usertable"}),
    )
    return LTPGEngine(db, registry, config), generator, batch


ZERO_COPY_SCALES = (32, 512)
UNIFIED_SCALES = (1024, 2048)


def _memory_mode(warehouses: int, scale: float):
    """Table IX: warehouse counts and the simulated device memory shrink
    together, so the two unified-memory scales genuinely overflow the
    device and fault pages in (rows keep the paper's labels)."""
    items, batch = scaled(PAPER_ITEMS, scale, minimum=512), scaled(PAPER_BATCH, scale, minimum=32)
    threshold = tpcc_nbytes(
        TpccScale(warehouses=scaled(UNIFIED_SCALES[0], scale), num_items=items)
    )
    device = DeviceConfig(device_memory_bytes=int(threshold * 0.9))
    db, registry, generator = build_tpcc(
        warehouses=scaled(warehouses, scale),
        num_items=items,
        mix=TpccMix.neworder_percentage(50),
        seed=SEED,
    )
    mode = MemoryMode.ZERO_COPY if warehouses in ZERO_COPY_SCALES else MemoryMode.UNIFIED
    engine = LTPGEngine(db, registry, ltpg_config(batch, memory_mode=mode), Device(device))
    return engine, generator, batch


#: Fig 6(b)'s cumulative steps over the unenhanced engine.  Pipelining
#: is last: its transfer-overlap gain shows only once the
#: high-contention bundle stabilizes the commit rate.
STEPS = {
    "baseline": {},
    "+high-contention": dict(logical_reordering=True, split_flags=True, delayed_update=True),
    "+hash-buckets": dict(dynamic_buckets=True, adaptive_warps=True),
    "+pipeline": dict(pipelined=True),
}


def _step(step: str, scale: float):
    names = list(STEPS)
    change = {k: v for s in names[: names.index(step) + 1] for k, v in STEPS[s].items()}
    return _tpcc(32, scale, optimized=False, **change)


#: Design-choice ablations (DESIGN.md §5): study -> variant -> what the
#: variant changes.  The last study runs YCSB-E, the rest TPC-C at 8 WH.
ABLATIONS: dict[str, dict[str, dict]] = {
    "adaptive warp division": {
        "grouped (adaptive)": {"adaptive_warps": True},
        "naive (per-txn)": {"adaptive_warps": False},
    },
    "abort retry delay": {
        "retry +1": {"retry_delay_batches": 1},
        "retry +2": {"retry_delay_batches": 2},
    },
    "logical reordering": {
        "with reordering": {"logical_reordering": True},
        "without reordering": {"logical_reordering": False},
    },
    "YCSB-E scan access path": {
        "pre-resolved keys": {"btree_scans": False},
        "B-tree range scans": {"btree_scans": True},
    },
}


def _ablation(study: str, variant: str, scale: float):
    change = ABLATIONS[study][variant]
    if "btree_scans" in change:
        records, batch = scaled(100_000, scale, minimum=512), scaled(PAPER_BATCH, scale, minimum=64)
        return _ycsb(records, "e", batch, **change)
    return _tpcc(8, scale, **change)


#: The standard TPC-C transaction mix.
FULL_MIX = TpccMix(neworder=0.45, payment=0.43, orderstatus=0.04, stocklevel=0.04, delivery=0.04)
PROCS = ("neworder", "payment", "orderstatus", "stocklevel", "delivery")


def _tpcc8(scale: float, mix: TpccMix, hot: float | None = None, optimized: bool = True):
    """TPC-C at 8 WH for the sweep and the full mix; ``hot`` sets
    Payment's hot-customer probability."""
    batch, items = scaled(PAPER_BATCH, scale, minimum=64), scaled(PAPER_ITEMS, scale, minimum=512)
    db, registry, generator = build_tpcc(warehouses=8, num_items=items, mix=mix, seed=SEED)
    if hot is not None:
        generator = TpccGenerator(
            TpccScale(warehouses=8, num_items=items), mix=mix, seed=SEED, hot_customer_prob=hot
        )
    config = ltpg_config(batch)
    if not optimized:
        config = config.without_optimizations()
    return LTPGEngine(db, registry, config), generator, batch


def _bucket_latency(cells: list[Key], scale: float, rounds: int) -> list[Record]:
    """Table VII's microbenchmark, always full size: T = grid x block
    threads each register a TID into H buckets (large buckets re-hash
    into ``TID mod s_u`` sub-slots), then read them back.  One device: a
    cell is its clock's advance across the two kernels."""
    device, out = Device(), []
    for grid, block, hash_size, su in cells:
        geometry = LaunchGeometry(grid=grid, block=block)
        tids = np.arange(geometry.threads, dtype=np.int64)
        # Consecutive warps work on consecutive data items, so a key is
        # decorrelated from the lane id — which is what lets the re-hash
        # spread a hot bucket across sub-slots.
        slots = ((tids // 32) % hash_size) * su + (tids % su)
        start = device.elapsed_ns()
        with device.kernel("mark", geometry=geometry) as ctx:
            ctx.add_instructions(4, per_thread=True)  # hash + book-keeping
            ctx.record_atomics(*collision_profile(slots))
        mark_ns = device.elapsed_ns() - start
        start = device.elapsed_ns()
        with device.kernel("read", geometry=geometry) as ctx:
            ctx.add_instructions(2, per_thread=True)
            ctx.add_global_reads(geometry.threads)
        read_ns = device.elapsed_ns() - start
        times = {"total_us": mark_ns + read_ns, "mark_us": mark_ns, "read_us": read_ns}
        out.append(((grid, block, hash_size, su), {c: ns / 1e3 for c, ns in times.items()}))
    return out


def _calibrate(cells: list[Key], scale: float, rounds: int) -> list[Record]:
    """Measured vs paper for each anchored cell.  A steady-state source
    runs only its anchored cells; Table VII runs whole (one clock)."""
    out = []
    for source in dict.fromkeys(s for s, _ in cells):
        spec, anchors = SPECS[source], [k for s, k in cells if s == source]
        axes = {} if spec.measure else {
            a: tuple(dict.fromkeys(k[i] for k in anchors)) for i, (a, _) in enumerate(spec.axes)
        }
        got = dict(run(source, scale, rounds, **axes))
        for key in anchors:
            measured, paper = got[key][spec.paper_column], spec.paper[key]
            ratio = measured / paper
            out.append(((source, key), {"measured": measured, "paper": paper, "ratio": ratio}))
    return out


# -- measured columns ---------------------------------------------------


def _per_batch(fn: Callable, unit: float = 1.0) -> Column:
    """The mean over the run's batches of ``fn(batch_stats)``, / ``unit``."""
    return lambda r, engine: sum(fn(b) for b in r.run.batches) / len(r.run.batches) / unit


def _phase_us(phase: str) -> Column:
    return lambda r, engine: r.run.phase_totals().get(phase, 0.0) / max(1, r.run.num_batches) / 1e3


def _occupancy(kind: int) -> Column:
    """Share (%) of conflict-log memory in standard (0) / large (1) buckets."""

    def pct(r, engine) -> float:
        report = engine.conflict_log.memory_report()
        return 100.0 * report[kind] / max(1, sum(report))

    return pct


def _raw_abort_pct(r: SteadyStateResult, engine) -> float:
    raw = sum(
        count
        for b in r.run.batches
        for reason, count in b.abort_reasons.items()
        if "raw" in reason and "waw" not in reason
    )
    return 100 * raw / max(1, sum(b.aborted for b in r.run.batches))


def _proc_rate(proc: str) -> Column:
    def rate(r, engine) -> float:
        committed = sum(b.committed_by_proc.get(proc, 0) for b in r.run.batches)
        return committed / max(1, sum(b.total_by_proc.get(proc, 0) for b in r.run.batches))

    return rate


def _retries(r: SteadyStateResult, engine) -> dict[str, int]:
    """Commits per attempt count."""
    counts: Counter = Counter()
    for b in r.run.batches:
        counts.update(b.commit_attempts)
    return {str(a): counts[a] for a in sorted(counts)}


# -- the paper's shapes -------------------------------------------------


def _beats(m: dict, column: str, a: Key, b: Key, factor: float = 1.0, strict: bool = True) -> None:
    """Cell ``a``'s column exceeds ``factor`` x cell ``b``'s (or ties it,
    unless ``strict``), where both cells ran."""
    if a in m and b in m:
        x, y = m[a][column], factor * m[b][column]
        assert x > y or (not strict and x == y), f"{column}: {a} {x} vs {factor} x {b}"


def _table2_shape(m: dict, scale: float) -> None:
    """LTPG leads GaccO on the mix, GaccO leads on 100 % Payment up to 32
    WH, GPU systems clear the CPU field.  LTPG's 100 % NewOrder lead
    needs paper-sized batches to amortize its per-batch fixed cost: at
    scale 8 it holds from 16 WH, below that only rough parity."""
    assert all(v["mtps"] > 0 for v in m.values())
    for w in {k[1] for k in m}:
        _beats(m, "mtps", (50, w, "ltpg"), (50, w, "gacco"), 0.95)
        _beats(m, "mtps", (50, w, "ltpg"), (50, w, "calvin"))
        _beats(m, "mtps", (50, w, "ltpg"), (50, w, "aria"))
        _beats(m, "mtps", (50, w, "aria"), (50, w, "bohm"))
        if w <= 32:
            _beats(m, "mtps", (0, w, "gacco"), (0, w, "ltpg"), 1.0 if scale <= 16 else 0.9)
        _beats(m, "mtps", (100, w, "ltpg"), (100, w, "gacco"), 1.0 if scale <= 8 < w else 0.6)
        for cpu in ("aria", "calvin", "bohm", "pwv", "dbx1000", "bamboo"):
            if scale <= 32:
                _beats(m, "mtps", (50, w, "ltpg"), (50, w, cpu), 1.0 if scale <= 8 else 0.85)


def _table3_shape(m: dict, scale: float) -> None:
    """Larger batches amortize launch, sync and transfer overheads."""
    _beats(m, "mtps", (50, 8, 2**14), (50, 8, 2**8))
    _beats(m, "mtps", (100, 8, 2**12), (100, 8, 2**8))


def _table4_shape(m: dict, scale: float) -> None:
    """LTPG wins batch and transmission latency; paper: it cuts batch
    latency by 44-72 %."""
    for w, b, _ in m:
        _beats(m, "latency_us", (w, b, "gacco"), (w, b, "ltpg"))
        _beats(m, "transfer_us", (w, b, "gacco"), (w, b, "ltpg"))
    _beats(m, "latency_us", (8, 8_192, "gacco"), (8, 8_192, "ltpg"), 1.25)


def _table5_shape(m: dict, scale: float) -> None:
    """Copy-back grows with the batch (paper: 25 us -> 300 us)."""
    for small, large in zip(sorted(m), sorted(m)[1:]):
        _beats(m, "rwset_us", large, small)


def _table6_shape(m: dict, scale: float) -> None:
    """Payment jumps from ~(warehouses / payments), essentially zero where
    a warehouse sees hundreds of payments a batch; NewOrder barely
    moves; the total rises."""
    for w, b, optimized in m:
        on, off = (w, b, True), (w, b, False)
        if optimized and off in m:
            _beats(m, "rate_payment", on, off, 4.0 if b >= 512 * w else 1.0)
            _beats(m, "rate_total", on, off)
            assert abs(m[on]["rate_neworder"] - m[off]["rate_neworder"]) < 0.2


def _table7_shape(m: dict, scale: float) -> None:
    """Marking dominates and large buckets shorten it; reading is
    bucket-size insensitive; a smaller hash table contends more."""
    for (g, b, h, su), v in m.items():
        assert v["mark_us"] > v["read_us"]
        if su == 1 and (g, b, h, 32) in m:
            _beats(m, "mark_us", (g, b, h, 1), (g, b, h, 32))
            assert math.isclose(m[(g, b, h, 32)]["read_us"], v["read_us"], rel_tol=1e-6)
    _beats(m, "mark_us", (1024, 1024, 1, 1), (1024, 1024, 512, 1))
    _beats(m, "mark_us", (512, 512, 32, 1), (512, 512, 32, 32), 1.5)  # paper: ~2x


def _table8_shape(m: dict, scale: float) -> None:
    """Large buckets hold a tiny, flat share of conflict-log memory."""
    large = [v["large_pct"] for v in m.values()]
    assert all(math.isclose(v["large_pct"] + v["standard_pct"], 100.0) for v in m.values())
    assert max(large) < 10.0 and max(large) - min(large) < 5.0


def _table9_shape(m: dict, scale: float) -> None:
    """Page faults inflate the unified-memory phases."""
    for (w,), v in m.items():
        assert v["mode"] == ("zero_copy" if w in ZERO_COPY_SCALES else "unified")
    _beats(m, "execute_us", (2048,), (32,), 2.0)


def _fig6a_shape(m: dict, scale: float) -> None:
    """Latency grows with the batch; the commit rate stays in a band."""
    assert all(0.2 < v["commit_rate"] <= 1.0 for v in m.values())
    _beats(m, "latency_us", max(m), min(m))


def _fig6b_shape(m: dict, scale: float) -> None:
    """The high-contention bundle lifts the unenhanced engine (paper:
    ~1.75x) and the hash buckets keep the gain."""
    base, hc, hb = ("baseline",), ("+high-contention",), ("+hash-buckets",)
    _beats(m, "mtps", hc, base, 1.2)
    _beats(m, "mtps", hb, base, 1.2)
    _beats(m, "mtps", hb, hc, 0.9, strict=False)


def _fig7_shape(m: dict, scale: float) -> None:
    """Update-heavy A at most read-heavy B and read-only C above
    scan-heavy E everywhere; C leads A and E trails all at the large
    batch; throughput grows with the batch."""
    for n, _, b in m:
        _beats(m, "mtps", (n, "b", b), (n, "a", b), strict=False)
        _beats(m, "mtps", (n, "c", b), (n, "e", b))
        if b >= 2**14:
            _beats(m, "mtps", (n, "c", b), (n, "a", b), strict=False)
            for wl in "abcd":
                _beats(m, "mtps", (n, wl, b), (n, "e", b), strict=False)
    _beats(m, "mtps", (10_000, "c", 2**14), (10_000, "c", 2**10))


def _ablations_shape(m: dict, scale: float) -> None:
    warp, retry, reorder, scans = ABLATIONS
    grouped, naive = (warp, "grouped (adaptive)"), (warp, "naive (per-txn)")
    if grouped in m and naive in m:
        assert m[grouped]["divergence"] == 0 < m[naive]["divergence"]
        _beats(m, "mtps", grouped, naive, strict=False)
    # the pipeline's +2 delay must not collapse throughput
    _beats(m, "mtps", (retry, "retry +2"), (retry, "retry +1"), 0.5)
    # within a batch reordering commits a superset (tests/test_properties.py);
    # across a run the changed batch compositions add a little noise
    with_r, without = (reorder, "with reordering"), (reorder, "without reordering")
    if with_r in m and without in m:
        assert m[with_r]["commit_rate"] >= m[without]["commit_rate"] - 0.03
        assert m[with_r]["raw_abort_pct"] == 0, "reordering leaves no pure-RAW aborts"
    # the ordered index pays a descent per scan, within ~30 %, and commits
    btree = (scans, "B-tree range scans")
    _beats(m, "mtps", btree, (scans, "pre-resolved keys"), 0.7)
    assert btree not in m or m[btree]["commit_rate"] > 0.9


def _sweep_shape(m: dict, scale: float) -> None:
    """Section VI-F: hotter data aborts more, and the optimizations keep
    the engine far above the unoptimized one."""
    hots = sorted(hot for hot, optimized in m if optimized)
    for hot in hots:
        _beats(m, "mtps", (hot, True), (hot, False))
    if hots:
        assert m[(hots[-1], True)]["commit_rate"] <= m[(hots[0], True)]["commit_rate"] + 0.02


def _fullmix_shape(m: dict, scale: float) -> None:
    """Read-only types never CC-abort, writers mostly commit, retries decay."""
    v = m[()]
    assert v["mtps"] > 0 and 0 < v["commit_rate"] <= 1 and v["p99_us"] >= v["p50_us"]
    assert v["orderstatus_rate"] == 1.0 and v["stocklevel_rate"] == 1.0
    assert v["neworder_rate"] > 0.3 and v["payment_rate"] > 0.3
    assert v["retries"].get("1", 0) > v["retries"].get("2", 0)


def _calibration_shape(m: dict, scale: float) -> None:
    assert all(0 < v["ratio"] < math.inf for v in m.values())


# -- the spec table -----------------------------------------------------

_SYSTEMS = ("dbx1000", "bamboo", "bohm", "pwv", "calvin", "aria", "gputx", "gacco", "ltpg")
_BATCHES = tuple(2**k for k in (8, 10, 12, 14, 16))
_MIXES = (("pct", (50, 100, 0)), ("warehouses", (8, 16, 32, 64)))
#: Paper Table II, 50 % NewOrder / 8 warehouses (10^6 TXs/s).
_PAPER_50_8 = dict(
    ltpg=18.41, gacco=16.06, bamboo=4.30, dbx1000=2.64, pwv=1.27,
    aria=0.60, calvin=0.39, gputx=0.02, bohm=0.02,
)

SPECS: dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            "table2",
            "Table II: TPC-C throughput (10^6 TXs/s)",
            (*_MIXES, ("system", _SYSTEMS)),
            {"mtps": "mtps"},
            setup=lambda pct, warehouses, system, scale: _tpcc(
                warehouses, scale, pct, system=system
            ),
            rows=("system",),
            cols=("pct", "warehouses"),
            paper={(50, 8, s): v for s, v in _PAPER_50_8.items()},
            paper_column="mtps",
            shape=_table2_shape,
        ),
        Spec(
            "table3",
            "Table III: LTPG throughput vs batch size (10^6 TXs/s)",
            (*_MIXES, ("batch", _BATCHES)),
            {"mtps": "mtps"},
            setup=lambda pct, warehouses, batch, scale: _tpcc(warehouses, scale, pct, batch),
            rows=("batch",),
            cols=("pct", "warehouses"),
            shape=_table3_shape,
        ),
        Spec(
            "table4",
            "Table IV: per-batch latency, transmission latency (us)",
            (("warehouses", (8, 64)), ("batch", (8_192, 65_536)), ("system", ("ltpg", "gacco"))),
            {"latency_us": "mean_latency_us", "transfer_us": "mean_transfer_us"},
            setup=lambda warehouses, batch, system, scale: _tpcc(
                warehouses, scale, batch=batch, system=system
            ),
            rows=("system",),
            cols=("warehouses", "batch"),
            shape=_table4_shape,
        ),
        Spec(
            "table5",
            "Table V: read/write-set copy-back overhead (us), 32 WH",
            (("batch", (1_024, 16_384, 65_536)),),
            {"rwset_us": _per_batch(lambda b: b.rwset_ns, 1e3)},
            setup=lambda batch, scale: _tpcc(32, scale, batch=batch),
            cols=("batch",),
            shape=_table5_shape,
        ),
        Spec(
            "table6",
            "Table VI: commit rate with/without high-contention optimization",
            (("warehouses", (32, 8)), ("batch", (16_384, 4_096)), ("optimized", (True, False))),
            {
                "committed_total": _per_batch(lambda b: b.committed),
                "committed_neworder": _per_batch(lambda b: b.committed_by_proc.get("neworder", 0)),
                "committed_payment": _per_batch(lambda b: b.committed_by_proc.get("payment", 0)),
                "rate_total": _per_batch(lambda b: b.commit_rate),
                "rate_neworder": _per_batch(lambda b: b.commit_rate_of("neworder")),
                "rate_payment": _per_batch(lambda b: b.commit_rate_of("payment")),
            },
            setup=lambda warehouses, batch, optimized, scale: _tpcc(
                warehouses, scale, batch=batch, optimized=optimized
            ),
            rows=("warehouses", "batch", "optimized"),
            shape=_table6_shape,
        ),
        Spec(
            "table7",
            "Table VII: conflict-log bucket latency (us), s_u = 1 vs 32",
            (
                ("grid", (1024, 512)),
                ("block", lambda grid: (grid,)),  # square geometries
                ("hash", (1, 32, 512)),
                ("su", (1, 32)),
            ),
            measure=_bucket_latency,
            rows=("grid", "block"),
            cols=("hash", "su"),
            paper={
                (1024, 1024, 1, 1): 638.0,
                (1024, 1024, 1, 32): 105.0,
                (512, 512, 32, 1): 76.0,
                (512, 512, 32, 32): 37.0,
            },
            paper_column="mark_us",
            shape=_table7_shape,
        ),
        Spec(
            "table8",
            "Table VIII: hash-table memory occupancy (%)",
            (("warehouses", (8, 16, 32, 64)),),
            {"large_pct": _occupancy(1), "standard_pct": _occupancy(0)},
            setup=lambda warehouses, scale: _tpcc(warehouses, scale),
            cols=("warehouses",),
            # occupancy is a static property of one batch's popularity verdicts
            rounds=lambda key, rounds: 1,
            shape=_table8_shape,
        ),
        Spec(
            "table9",
            "Table IX: per-phase time (us), zero-copy vs unified memory",
            (("warehouses", ZERO_COPY_SCALES + UNIFIED_SCALES),),
            {
                "mode": lambda r, engine: engine.config.memory_mode.value,
                **{f"{p}_us": _phase_us(p) for p in ("execute", "conflict", "writeback")},
            },
            setup=_memory_mode,
            rows=("warehouses",),
            rounds=lambda key, rounds: min(rounds, 2),
            min_scale=16.0,
            shape=_table9_shape,
        ),
        Spec(
            "fig6a",
            "Fig 6(a): commit rate and latency vs batch size, 32 WH",
            (("batch", _BATCHES),),
            {"commit_rate": "commit_rate", "latency_us": "mean_latency_us"},
            setup=lambda batch, scale: _tpcc(32, scale, batch=batch),
            rows=("batch",),
            shape=_fig6a_shape,
        ),
        Spec(
            "fig6b",
            "Fig 6(b): impact of enabling optimizations one by one, 32 WH",
            (("step", tuple(STEPS)),),
            {"mtps": "mtps"},
            setup=_step,
            rows=("step",),
            # the unenhanced steps re-abort hot Payments for many batches:
            # measure long enough that the transient washes out of each
            rounds=lambda key, rounds: max(rounds, 8),
            shape=_fig6b_shape,
        ),
        Spec(
            "fig7",
            "Fig 7: YCSB throughput (10^6 TXs/s), Zipf alpha 2.5",
            (
                ("data_size", (10_000, 1_000_000)),
                ("workload", ("a", "b", "c", "d", "e")),
                ("batch", (2**10, 2**14)),
            ),
            {"mtps": "mtps"},
            setup=lambda data_size, workload, batch, scale: _ycsb(
                scaled(data_size, scale, minimum=256),
                workload,
                scaled(batch, scale, minimum=32),
                zipf_alpha=2.5,
            ),
            rows=("workload",),
            cols=("batch",),
            block="data_size",
            rounds=lambda key, rounds: min(rounds, 3),
            shape=_fig7_shape,
        ),
        Spec(
            "ablations",
            "Ablation",
            (("study", tuple(ABLATIONS)), ("variant", lambda study: tuple(ABLATIONS[study]))),
            {
                "mtps": "mtps",
                "commit_rate": "commit_rate",
                "divergence": _per_batch(lambda b: b.divergent_branches),
                "latency_us": "mean_latency_us",
                "raw_abort_pct": _raw_abort_pct,
            },
            setup=_ablation,
            rows=("variant",),
            block="study",
            rounds=lambda key, rounds: max(rounds, 6) if key[0] == "abort retry delay" else rounds,
            shape=_ablations_shape,
        ),
        Spec(
            "sweep",
            "Contention sweep (Section VI-F): hot-data access frequency, 8 WH",
            (("hot", (0.0, 0.25, 0.5, 0.75, 1.0)), ("optimized", (True, False))),
            {"mtps": "mtps", "commit_rate": "commit_rate"},
            setup=lambda hot, optimized, scale: _tpcc8(
                scale, TpccMix.neworder_percentage(50), hot, optimized
            ),
            rows=("hot",),
            cols=("optimized",),
            shape=_sweep_shape,
        ),
        Spec(
            "fullmix",
            "Full TPC-C mix (45/43/4/4/4) on LTPG, 8 WH",
            (),
            {
                "mtps": "mtps",
                "commit_rate": "commit_rate",
                "p50_us": lambda r, engine: r.run.latency_percentile(50) / 1e3,
                "p99_us": lambda r, engine: r.run.latency_percentile(99) / 1e3,
                **{f"{proc}_rate": _proc_rate(proc) for proc in PROCS},
                "retries": _retries,
            },
            setup=lambda scale: _tpcc8(scale, FULL_MIX),
            rounds=lambda key, rounds: max(rounds, 4),
            shape=_fullmix_shape,
        ),
        Spec(
            "calibration",
            "Calibration anchors: measured vs paper",
            (
                ("source", ("table2", "table7")),
                ("anchor", lambda source: tuple(SPECS[source].paper)),
            ),
            measure=_calibrate,
            rows=("source", "anchor"),
            shape=_calibration_shape,
        ),
    )
}
