"""Serve-mode bench: end-to-end client latency under the async ingress.

Every other harness in this package feeds the engine pre-assembled
batches, so the only latency it can report is batch residency.  This
one measures what a *client* sees — queue wait while the batch forms,
plus execution — by driving each workload through
:mod:`repro.serve`'s open-loop simulation and reporting nearest-rank
p50/p95/p99 over per-request latencies, alongside goodput (committed
transactions per simulated second).

Unlike ``BENCH_wallclock.json`` these numbers live entirely on the
virtual clock: they are **machine-independent and deterministic** for a
fixed seed set, and the file records nothing about the host, so it
regenerates byte for byte anywhere.  That is the gate: CI reruns
``python -m repro.bench serve`` and fails on any diff to the committed
``BENCH_serve.json``, every row and column exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.bench.paper import format_table

#: (policy name, max queue wait in us or None for size-only) per row.
#: 25 us is deliberately tighter than the ~32 us a full batch takes to
#: arrive at the default rate, so the deadline policy actually cuts
#: early and the latency/throughput trade-off shows up in the table.
POLICY_ROWS: tuple[tuple[str, int | None], ...] = (
    ("size", None),
    ("deadline", 25),
)

WORKLOADS = ("tpcc", "ycsb", "smallbank")

#: Open-loop load per cell at scale 1 (divided by ``scale``).
BASE_REQUESTS = 4096
ARRIVAL_RATE_PER_S = 2e6
BATCH_SIZE = 64
MAX_WAIT_US = 25
SEED = 7
ARRIVAL_SEED = 23


def measure_cell(
    workload: str,
    policy: str,
    *,
    requests: int,
    max_wait_us: int | None = MAX_WAIT_US,
) -> dict:
    """One (workload, policy) open-loop run -> JSON-ready row."""
    from repro.serve.api import simulate_serve

    report = simulate_serve(
        workload,
        batch_size=BATCH_SIZE,
        seed=SEED,
        policy=policy,
        max_wait_us=max_wait_us if max_wait_us is not None else MAX_WAIT_US,
        mode="open",
        num_requests=requests,
        rate_per_s=ARRIVAL_RATE_PER_S,
        arrival_seed=ARRIVAL_SEED,
    )
    total = report.submitted + report.shed
    return {
        "workload": workload,
        "policy": policy,
        "requests": total,
        "shed_pct": 100.0 * report.shed / total if total else 0.0,
        "committed": report.committed,
        "retries": report.retries,
        "batches": report.batches,
        "mean_batch": round(report.mean_batch_size, 2),
        "goodput_mtps": report.goodput_tps / 1e6,
        "p50_us": report.latency["p50"] / 1e3,
        "p95_us": report.latency["p95"] / 1e3,
        "p99_us": report.latency["p99"] / 1e3,
        "max_us": report.latency["max"] / 1e3,
        "queue_p99_us": report.queue_wait["p99"] / 1e3,
    }


@dataclass
class ServeBenchResult:
    """All cells of the serve sweep, plus run provenance."""

    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def format(self) -> str:
        headers = [
            "workload", "policy", "req", "shed%", "commit", "retry",
            "batches", "mean", "Mtps", "p50us", "p95us", "p99us",
        ]
        table_rows = [
            [
                r["workload"], r["policy"], r["requests"],
                r["shed_pct"], r["committed"], r["retries"], r["batches"],
                r["mean_batch"], r["goodput_mtps"], r["p50_us"],
                r["p95_us"], r["p99_us"],
            ]
            for r in self.rows
        ]
        return format_table(
            "Serve: open-loop client latency by batch policy "
            "(virtual clock, deterministic)",
            headers,
            table_rows,
            note="latency = queue wait + batch residency + execute; "
            "goodput = committed / simulated second",
        )

    def write(self, path: str) -> None:
        payload = {"meta": self.meta, "rows": self.rows}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run(scale: float = 8.0, rounds: int = 1) -> ServeBenchResult:
    """Sweep every (workload, policy) cell at ``BASE_REQUESTS/scale``
    open-loop requests.  ``rounds > 1`` re-runs each cell and *asserts*
    bit-identical rows — a built-in determinism audit, not averaging
    (there is no noise to average on a virtual clock)."""
    requests = max(int(BASE_REQUESTS / scale), 64)
    result = ServeBenchResult(
        meta={
            "requests_per_cell": requests,
            "arrival_rate_per_s": ARRIVAL_RATE_PER_S,
            "batch_size": BATCH_SIZE,
            "max_wait_us": MAX_WAIT_US,
            "seed": SEED,
            "arrival_seed": ARRIVAL_SEED,
            "scale": scale,
            "clock": "virtual (machine-independent)",
        }
    )
    for workload in WORKLOADS:
        for policy, max_wait_us in POLICY_ROWS:
            row = measure_cell(
                workload, policy, requests=requests, max_wait_us=max_wait_us
            )
            for _ in range(max(rounds - 1, 0)):
                again = measure_cell(
                    workload, policy,
                    requests=requests, max_wait_us=max_wait_us,
                )
                if again != row:
                    raise AssertionError(
                        f"serve cell ({workload}, {policy}) is not "
                        "deterministic across rounds"
                    )
            result.rows.append(row)
    return result


def run_and_write(
    scale: float = 8.0,
    rounds: int = 1,
    path: str = "BENCH_serve.json",
) -> ServeBenchResult:
    """CLI entry point: run the sweep and emit ``BENCH_serve.json``."""
    result = run(scale=scale, rounds=rounds)
    result.write(path)
    return result
