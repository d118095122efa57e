"""Table II: throughput of nine systems on TPC-C mixes.

Columns: {50, 100, 0}%% NewOrder x {8, 16, 32, 64} warehouses; cell =
10^6 committed transactions per second.  Expected shape (paper): LTPG
leads GaccO by ~1.2x on mixed and 1.4-1.9x on 100%% NewOrder; GaccO
dominates 100%% Payment via exchange operations; Bamboo > DBx1000 >
PWV > Aria > Calvin > BOHM ~ GPUTx among CPU systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import make_engine
from repro.bench.common import DEFAULT_ROUNDS, ltpg_config, tpcc_bench
from repro.bench.reporting import format_table
from repro.bench.runner import steady_state_run

#: Column order matches the paper's header: pct-NewOrder, warehouses.
CONFIGS: tuple[tuple[int, int], ...] = tuple(
    (pct, w) for pct in (50, 100, 0) for w in (8, 16, 32, 64)
)

SYSTEMS: tuple[str, ...] = (
    "dbx1000",
    "bamboo",
    "bohm",
    "pwv",
    "calvin",
    "aria",
    "gputx",
    "gacco",
    "ltpg",
)


@dataclass
class Table2Result:
    """mtps[(system, pct, warehouses)]"""

    mtps: dict[tuple[str, int, int], float] = field(default_factory=dict)

    def configs_present(self) -> list[tuple[int, int]]:
        seen = {(pct, w) for _, pct, w in self.mtps}
        return [cfg for cfg in CONFIGS if cfg in seen]

    def row(self, system: str) -> list[float]:
        return [
            self.mtps.get((system, pct, w), float("nan"))
            for pct, w in self.configs_present()
        ]

    def format(self) -> str:
        configs = self.configs_present()
        headers = ["system"] + [f"{pct}-{w}" for pct, w in configs]
        rows = [
            [system] + self.row(system)
            for system in SYSTEMS
            if any((system, pct, w) in self.mtps for pct, w in configs)
        ]
        return format_table(
            "Table II: TPC-C throughput (10^6 TXs/s)", headers, rows
        )


def run(
    scale: float = 8.0,
    rounds: int = DEFAULT_ROUNDS,
    systems: tuple[str, ...] = SYSTEMS,
    configs: tuple[tuple[int, int], ...] = CONFIGS,
    seed: int = 7,
) -> Table2Result:
    """Regenerate Table II at ``1/scale`` of the paper's batch/item sizes."""
    result = Table2Result()
    for pct, warehouses in configs:
        for system in systems:
            bench = tpcc_bench(
                warehouses, neworder_pct=pct, scale=scale, seed=seed
            )
            if system == "ltpg":
                engine = bench.engine(ltpg_config(bench.batch_size))
                r = steady_state_run(
                    engine, bench.generator, bench.batch_size, rounds
                )
            else:
                baseline = make_engine(system, bench.database, bench.registry)
                r = steady_state_run(
                    baseline, bench.generator, bench.batch_size, rounds
                )
            result.mtps[(system, pct, warehouses)] = r.mtps
    return result
