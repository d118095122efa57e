"""Table IV: per-batch latency and data-transmission latency (us),
LTPG vs GaccO, at {8, 64} warehouses x {8192, 65536} batch.

Expected shape: LTPG's batch latency is 2-6x lower than GaccO's (no
preprocessing/sort, smaller transfers), and its transmission latency is
several times lower (read/write-sets + flags vs secondary-copy sync).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import GaccoEngine
from repro.bench.common import DEFAULT_ROUNDS, ltpg_config, tpcc_bench
from repro.bench.reporting import format_table
from repro.bench.runner import steady_state_run

CONFIGS: tuple[tuple[int, int], ...] = (
    (8, 8_192),
    (8, 65_536),
    (64, 8_192),
    (64, 65_536),
)


@dataclass
class Table4Result:
    """(latency_us, transfer_us)[(system, warehouses, batch)]"""

    cells: dict[tuple[str, int, int], tuple[float, float]] = field(
        default_factory=dict
    )

    def format(self) -> str:
        headers = ["system"] + [f"{w}/{b}" for w, b in CONFIGS]
        rows = []
        for system in ("ltpg", "gacco"):
            row: list[object] = [system]
            for w, b in CONFIGS:
                lat, xfer = self.cells.get((system, w, b), (float("nan"),) * 2)
                row.append(f"{lat:,.0f}, {xfer:,.0f}")
            rows.append(row)
        return format_table(
            "Table IV: per-batch latency, transmission latency (us)",
            headers,
            rows,
            note="cell = batch latency, data-transmission latency",
        )


def run(
    scale: float = 8.0,
    rounds: int = DEFAULT_ROUNDS,
    configs: tuple[tuple[int, int], ...] = CONFIGS,
    seed: int = 7,
) -> Table4Result:
    result = Table4Result()
    for warehouses, batch in configs:
        bench = tpcc_bench(
            warehouses, neworder_pct=50, batch_size=batch, scale=scale, seed=seed
        )
        engine = bench.engine(ltpg_config(bench.batch_size))
        r = steady_state_run(engine, bench.generator, bench.batch_size, rounds)
        result.cells[("ltpg", warehouses, batch)] = (
            r.mean_latency_us,
            r.mean_transfer_us,
        )
        bench_g = tpcc_bench(
            warehouses, neworder_pct=50, batch_size=batch, scale=scale, seed=seed
        )
        gacco = GaccoEngine(bench_g.database, bench_g.registry)
        rg = steady_state_run(
            gacco, bench_g.generator, bench_g.batch_size, rounds
        )
        result.cells[("gacco", warehouses, batch)] = (
            rg.mean_latency_us,
            rg.mean_transfer_us,
        )
    return result
