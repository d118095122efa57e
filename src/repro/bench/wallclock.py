"""Host wall-clock of the engine's phases: vectorized twins vs scalar lanes.

Every other harness in this package reports the *simulated* GPU clock,
which is deliberately identical whatever runs a batch's procedures (the
differential tests in ``tests/test_columnar_equivalence.py`` and
``tests/test_batched_equivalence.py`` pin that down against the test
oracle).  This harness measures the one thing that *does* differ: how
long the host takes to run each phase.  It sweeps batch sizes 2^10..2^16
on TPC-C 50/50 and reports per-batch seconds for the default engine
(``batched``: one vectorized twin call per procedure group), for
``batched_exec=False`` (``columnar``: the same pipeline with every lane
a scalar lane — what a registry without twins costs) and for the
default engine on mockgpu (``batched[mockgpu]``, the one device backend,
whose transfer ledger fills ``transfers_per_batch``), plus the first
two's ratio on execute and total, recorded in ``BENCH_wallclock.json``
(see docs/ARCHITECTURE.md for how to read it;
``scripts/check_wallclock.py schema`` holds the file to the keys the
docs name).  A separate
``small_batch`` section (:func:`measure_small_batch`) times driven
batches of 1..256 lanes with and without the twins: their
fixed cost per batch loses below a few dozen lanes, and the section
records where, so that a later change to that fixed cost has a before
to stand on.

Methodology: per (batch size, path) a fresh benchmark database is built
from the same seed and the engine is driven the way anything that
serves it drives it — :func:`repro.txn.batch.drive` over a
``BatchScheduler``: every batch full, TIDs assigned, aborts re-queued
ahead of fresh load.  :data:`WARMUP_BATCHES` batches are discarded
(until the commit rate has settled), then ``rounds`` are measured; the
per-phase time is the elementwise *minimum* across rounds (the
least-noise estimator on a shared host), and each cell carries the
``commit_rate`` and ``attempts_per_commit`` of the batches it timed,
because a batch's cost depends on how many of its lanes commit.  Unlike
the simulated-clock harnesses, these numbers are machine-dependent —
compare ratios, not absolute seconds.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.bench.paper import format_metrics, format_table, ltpg_config, tpcc_bench
from repro.core.stats import RunStats
from repro.txn import BatchScheduler, drive

#: The paper's batch-size sweep (Fig. 6a uses the same span).
BATCH_SIZES: tuple[int, ...] = tuple(2**k for k in range(10, 17))

#: Engine phases as reported by ``LTPGEngine.last_host_phase_s``.
PHASES: tuple[str, ...] = ("execute", "conflict", "writeback", "assemble")

#: Measured paths: column name -> (``batched_exec``, array backend).
PATHS: dict[str, tuple[bool, str]] = {
    "batched[mockgpu]": (True, "mockgpu"),
    "batched": (True, "numpy"),
    "columnar": (False, "numpy"),
}

#: The acceptance batch size (2^14, the paper's headline batch).
HEADLINE_BATCH = 16_384

#: Full batches driven and discarded before the first timed one.  A
#: scheduled stream starts at the commit rate of a batch with no
#: retried lane in it (0.76 at the headline shape) and falls as the
#: aborts it re-queues fill the later batches; at the headline shape it
#: has settled (0.31-0.32) by batch 16.
WARMUP_BATCHES = 16

#: Lane counts of the ``small_batch`` section: what a deadline cut
#: yields at low arrival rates, up to the served benchmark's
#: interactive batch size.
SMALL_BATCH_LANES: tuple[int, ...] = (1, 4, 16, 32, 64, 128, 256)

#: Batches timed back to back per round of the ``small_batch`` section
#: (a one-lane batch is a single NewOrder *or* Payment, so one batch is
#: not a sample of the mix).
SMALL_BATCH_BATCHES = 32


@dataclass
class WallclockResult:
    """Per-batch host seconds by phase, per measured path."""

    #: path name -> batch size -> phase -> seconds per batch (min of
    #: rounds), plus the cell's ``commit_rate`` / ``attempts_per_commit``
    seconds: dict[str, dict[int, dict[str, float]]] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)
    #: observability summary (``RunStats.metrics_summary``) from a short
    #: traced run at the headline batch — the timed sweep stays untraced
    metrics: dict = field(default_factory=dict)
    #: path name -> batch size -> engine phase -> transfer-ledger deltas
    #: (``h2d_bytes``/``d2h_bytes``/...) of one steady-state batch, for
    #: every ledger-backed path and every batch-size column (what a
    #: device moves per batch across the sweep, not just at the traced
    #: headline batch)
    transfers: dict[str, dict[int, dict[str, dict[str, int]]]] = field(
        default_factory=dict
    )
    #: :func:`measure_small_batch`'s section
    small_batch: dict = field(default_factory=dict)

    def batched_speedup(self, batch: int, phase: str = "execute") -> float:
        """Columnar / batched on one phase (or ``total``)."""
        return self.seconds["columnar"][batch][phase] / max(
            self.seconds["batched"][batch][phase], 1e-12
        )

    def format(self) -> str:
        headers = [
            "batch size",
            "commit rate",
            "attempts / commit",
            "batched exec (s)",
            "columnar exec (s)",
            "batched speedup (exec)",
            "batched[mockgpu] exec (s)",
        ]
        rows = []
        for b in sorted(self.seconds.get("batched", {})):
            rows.append([
                b,
                self.seconds["batched"][b]["commit_rate"],
                self.seconds["batched"][b]["attempts_per_commit"],
                self.seconds["batched"][b]["execute"],
                self.seconds["columnar"][b]["execute"],
                f"{self.batched_speedup(b):.2f}x",
                self.seconds["batched[mockgpu]"][b]["execute"],
            ])
        table = format_table(
            "Host wall-clock per batch: vectorized twins (batched) vs "
            "scalar lanes (columnar) (TPC-C 50/50)",
            headers,
            rows,
            note="scheduled stream (TIDs assigned, aborts re-queued), "
            "commit rate and attempts per commit of the timed batched "
            "batches; batched speedup = columnar / batched on execute; "
            "simulated-time results are identical by construction.",
        )
        if self.transfers:
            xheaders = ["path", "batch size", "H2D (MB/batch)", "D2H (MB/batch)"]
            xrows = []
            for p in sorted(self.transfers):
                for b in sorted(self.transfers[p]):
                    phases = self.transfers[p][b]
                    h2d = sum(d.get("h2d_bytes", 0) for d in phases.values())
                    d2h = sum(d.get("d2h_bytes", 0) for d in phases.values())
                    xrows.append([p, b, f"{h2d / 1e6:.1f}", f"{d2h / 1e6:.1f}"])
            table += "\n\n" + format_table(
                "Steady-state transfer ledger per batch (device backend "
                "only)",
                xheaders,
                xrows,
                note="one post-warm-up batch per cell; per-phase splits "
                "are in BENCH_wallclock.json under transfers_per_batch.",
            )
        if self.small_batch:
            table += "\n\n" + format_small_batch(self.small_batch)
        if self.metrics:
            table += "\n\n" + format_metrics(
                self.metrics, title="Observability (traced headline batch)"
            )
        return table

    def to_json(self) -> dict:
        return {
            "meta": self.meta,
            "batch_sizes": sorted(self.seconds.get("batched", {})),
            "seconds_per_batch": {
                path: {str(b): phases for b, phases in by_batch.items()}
                for path, by_batch in self.seconds.items()
            },
            "speedup_execute_total": {
                str(b): {
                    "execute": round(self.batched_speedup(b, "execute"), 3),
                    "total": round(self.batched_speedup(b, "total"), 3),
                }
                for b in sorted(self.seconds.get("columnar", {}))
                if b in self.seconds.get("batched", {})
            },
            "small_batch": self.small_batch,
            "metrics": self.metrics,
            "transfers_per_batch": {
                path: {str(b): phases for b, phases in by_batch.items()}
                for path, by_batch in self.transfers.items()
            },
        }

    def write(self, path: str) -> None:
        _write_json(path, self.to_json())


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def driven(engine, batch_size: int, fresh, warmup: int = WARMUP_BATCHES):
    """``engine`` driven through a scheduler at full batches of
    ``batch_size`` — TIDs assigned, aborts re-queued, ``fresh(n)``
    topping each batch up — with the first ``warmup`` batches run and
    discarded; iterate it for the batch results that follow."""
    scheduler = BatchScheduler(
        batch_size, retry_delay_batches=engine.config.effective_retry_delay
    )
    stream = drive(engine, scheduler, fresh)
    deque(islice(stream, warmup), maxlen=0)
    return stream


@contextlib.contextmanager
def _steady_tpcc(
    batch_size: int, scale: float, warehouses: int, neworder_pct: int,
    seed: int, **config,
):
    """A fresh benchmark database (every path sees the same transaction
    stream for a given seed) under an engine with the ``config``
    overrides, past its warm-up: yields ``(engine, stream)``."""
    bench = tpcc_bench(
        warehouses, neworder_pct=neworder_pct, batch_size=batch_size,
        scale=scale, seed=seed,
    )
    with bench.engine(ltpg_config(bench.batch_size, **config)) as engine:
        yield engine, driven(
            engine, bench.batch_size, bench.generator.make_batch
        )


def measure_path(
    batch_size: int,
    scale: float = 1.0,
    rounds: int = 2,
    warehouses: int = 32,
    neworder_pct: int = 50,
    seed: int = 7,
    batched: bool = True,
    backend: str = "numpy",
    transfers_out: dict | None = None,
) -> dict[str, float]:
    """Min-of-rounds per-phase host seconds for one path, with the
    ``commit_rate`` and ``attempts_per_commit`` (lanes run per lane
    decided) of the ``rounds`` batches that were timed.

    ``batched=False`` is ``LTPGConfig(batched_exec=False)``: every lane
    a scalar lane.  ``backend`` selects the ``repro.xp`` array backend
    (on a device the warm-up also absorbs the first-touch column
    uploads).

    When ``transfers_out`` is given and the backend has a transfer
    ledger, the final measured batch's per-phase ledger deltas are
    stored there (deltas are deterministic per batch index, so the
    last — steadiest — batch is the representative one).
    """
    run = RunStats()
    best: dict[str, float] = {}
    with _steady_tpcc(
        batch_size, scale, warehouses, neworder_pct, seed,
        batched_exec=batched, array_backend=backend,
    ) as (engine, stream):
        for result in islice(stream, max(rounds, 1)):
            run.add(result.stats)
            for phase in PHASES:
                t = engine.last_host_phase_s.get(phase, 0.0)
                if phase not in best or t < best[phase]:
                    best[phase] = t
        if (
            transfers_out is not None
            and backend != "numpy"
            and engine.last_phase_transfers
        ):
            transfers_out.update(engine.last_phase_transfers)
    best["total"] = sum(best[p] for p in PHASES)
    best["commit_rate"] = round(run.mean_commit_rate, 4)
    best["attempts_per_commit"] = round(
        run.total_admitted / max(run.total_committed, 1), 4
    )
    return best


def measure_metrics(
    batch_size: int = HEADLINE_BATCH,
    scale: float = 1.0,
    batches: int = 2,
    warehouses: int = 32,
    neworder_pct: int = 50,
    seed: int = 7,
) -> dict:
    """Observability summary (:meth:`RunStats.metrics_summary`) of a
    short traced run at the (scaled) headline batch size — a separate
    run on purpose: the timed sweep never pays span/metrics
    bookkeeping."""
    run = RunStats()
    with _steady_tpcc(
        batch_size, scale, warehouses, neworder_pct, seed, trace=True
    ) as (_, stream):
        for result in islice(stream, max(batches, 1)):
            run.add(result.stats)
    return run.metrics_summary()


def measure_small_batch(
    lanes: tuple[int, ...] = SMALL_BATCH_LANES,
    rounds: int = 2,
    scale: float = 1.0,
    warehouses: int = 8,
    neworder_pct: int = 50,
    seed: int = 7,
) -> dict:
    """Host milliseconds per driven batch at small lane counts, one
    procedure call per transaction (``batched_exec=False``: every lane
    a scalar lane) against the default vectorized twins.

    Per (path, lane count) a fresh database is built from the same
    seed and the requests are generated ahead of the clock;
    :data:`SMALL_BATCH_BATCHES` warm-up batches are discarded, then
    each round times that many scheduled batches back to back (TIDs
    assigned, aborts re-queued — both paths decide identically, so both
    see the same database at every batch; the scheduler's share of a
    cell is the same on both); a cell is the minimum over rounds of a
    round's mean.  The engine's ``batch_size`` stays at the largest
    lane count, as it does when a deadline cuts a short batch.
    """
    paths = {"per_transaction": dict(batched_exec=False), "batched": {}}
    ms: dict[str, dict[str, float]] = {path: {} for path in paths}
    rounds = max(rounds, 1)
    for path, overrides in paths.items():
        for n in lanes:
            bench = tpcc_bench(
                warehouses, neworder_pct=neworder_pct, scale=scale, seed=seed
            )
            pool = iter(
                bench.generator.make_batch(n * SMALL_BATCH_BATCHES * (rounds + 1))
            )
            with bench.engine(ltpg_config(max(lanes), **overrides)) as engine:
                stream = driven(
                    engine, n, lambda k: list(islice(pool, k)), SMALL_BATCH_BATCHES
                )
                best = float("inf")
                for _ in range(rounds):
                    start = time.perf_counter()
                    deque(islice(stream, SMALL_BATCH_BATCHES), maxlen=0)
                    best = min(best, time.perf_counter() - start)
            ms[path][str(n)] = round(best / SMALL_BATCH_BATCHES * 1e3, 4)
    return {
        "workload": f"tpcc neworder={neworder_pct}%",
        "warehouses": warehouses,
        "rounds": rounds,
        "batches_per_round": SMALL_BATCH_BATCHES,
        "lanes": list(lanes),
        "ms_per_batch": ms,
        "speedup_batched": {
            n: round(ms["per_transaction"][n] / max(ms["batched"][n], 1e-9), 3)
            for n in ms["batched"]
        },
    }


def format_small_batch(section: dict) -> str:
    """:func:`measure_small_batch`'s section as a table."""
    ms = section["ms_per_batch"]
    return format_table(
        f"Small batches: host ms per driven batch "
        f"({section['workload']}, {section['warehouses']} warehouses)",
        ["lanes", "per-transaction (ms)", "batched (ms)", "speedup"],
        [
            [
                n,
                ms["per_transaction"][str(n)],
                ms["batched"][str(n)],
                f"{section['speedup_batched'][str(n)]:.2f}x",
            ]
            for n in section["lanes"]
        ],
        note="speedup = per-transaction / batched (the default); below 1 "
        "the twins' fixed cost per batch outweighs what they vectorise.",
    )


def refresh_small_batch(path: str, rounds: int = 2) -> dict:
    """Re-measure only the ``small_batch`` section of the artifact at
    ``path`` (written by :meth:`WallclockResult.write`), leaving the
    sweep's sections as they are; returns the new section."""
    with open(path) as fh:
        doc = json.load(fh)
    doc["small_batch"] = measure_small_batch(
        rounds=rounds,
        scale=doc["meta"]["scale"],
        seed=doc["meta"]["seed"],
    )
    _write_json(path, doc)
    return doc["small_batch"]


def run(
    scale: float = 1.0,
    rounds: int = 2,
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
    warehouses: int = 32,
    neworder_pct: int = 50,
    seed: int = 7,
) -> WallclockResult:
    """Sweep every path of :data:`PATHS` (the mockgpu column with its
    transfer ledger) over ``batch_sizes``."""
    from repro.xp import get_backend

    result = WallclockResult()
    result.meta = {
        "workload": f"tpcc neworder={neworder_pct}%",
        "scale": scale,
        "rounds": rounds,
        "warehouses": warehouses,
        "seed": seed,
        "estimator": "min over rounds of a scheduled stream (TIDs "
        "assigned, aborts re-queued), warm-up batches discarded",
        "warmup_batches": WARMUP_BATCHES,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        # the device column's backend and its library version
        "array_backend": get_backend("mockgpu").device_info(),
    }
    for path, (batched, xp_name) in PATHS.items():
        by_batch: dict[int, dict[str, float]] = {}
        for batch in batch_sizes:
            transfers: dict[str, dict[str, int]] = {}
            by_batch[batch] = measure_path(
                batch, scale=scale, rounds=rounds,
                warehouses=warehouses, neworder_pct=neworder_pct, seed=seed,
                batched=batched, backend=xp_name,
                transfers_out=transfers,
            )
            if transfers:
                result.transfers.setdefault(path, {})[batch] = transfers
        result.seconds[path] = by_batch
    result.metrics = measure_metrics(
        scale=scale, warehouses=warehouses, neworder_pct=neworder_pct,
        seed=seed,
    )
    result.small_batch = measure_small_batch(
        rounds=rounds, scale=scale, neworder_pct=neworder_pct, seed=seed
    )
    return result


def run_and_write(
    scale: float = 1.0,
    rounds: int = 2,
    path: str = "BENCH_wallclock.json",
    **kwargs,
) -> WallclockResult:
    """CLI entry point: run the sweep and emit the JSON trajectory."""
    result = run(scale=scale, rounds=rounds, **kwargs)
    result.write(path)
    return result
