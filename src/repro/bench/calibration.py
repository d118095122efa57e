"""Calibration report: measured vs paper targets for the anchors.

``python -m repro.bench calibration`` re-measures the three calibration
anchors documented in EXPERIMENTS.md and prints measured/target ratios.
Run it after touching any cost constant in
:class:`~repro.gpusim.config.DeviceConfig` or a baseline's class-level
knobs; ratios drifting past ~2x mean the shapes in the paper tables are
at risk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import make_engine
from repro.bench import table7
from repro.bench.common import ltpg_config, tpcc_bench
from repro.bench.reporting import format_table
from repro.bench.runner import steady_state_run

#: Paper Table II, 50% NewOrder / 8 warehouses column (10^6 TXs/s).
PAPER_50_8 = {
    "ltpg": 18.41,
    "gacco": 16.06,
    "bamboo": 4.30,
    "dbx1000": 2.64,
    "pwv": 1.27,
    "aria": 0.60,
    "calvin": 0.39,
    "gputx": 0.02,
    "bohm": 0.02,
}

#: Paper Table VII anchors: (grid, block, hash, s_u) -> mark latency us.
PAPER_TABLE7 = {
    (1024, 1024, 1, 1): 638.0,
    (1024, 1024, 1, 32): 105.0,
    (512, 512, 32, 1): 76.0,
    (512, 512, 32, 32): 37.0,
}


@dataclass
class CalibrationResult:
    rows: list[tuple[str, float, float]] = field(default_factory=list)

    def record(self, anchor: str, measured: float, target: float) -> None:
        self.rows.append((anchor, measured, target))

    def worst_ratio(self) -> float:
        worst = 1.0
        for _, measured, target in self.rows:
            if measured <= 0 or target <= 0:
                return float("inf")
            ratio = max(measured / target, target / measured)
            worst = max(worst, ratio)
        return worst

    def format(self) -> str:
        table_rows = []
        for anchor, measured, target in self.rows:
            ratio = measured / target if target else float("nan")
            table_rows.append([anchor, measured, target, f"{ratio:.2f}x"])
        return format_table(
            "Calibration anchors: measured vs paper",
            ["anchor", "measured", "paper", "ratio"],
            table_rows,
            note=f"worst-case deviation: {self.worst_ratio():.2f}x",
        )


def run(
    scale: float = 8.0,
    rounds: int = 3,
    systems: tuple[str, ...] = tuple(PAPER_50_8),
) -> CalibrationResult:
    result = CalibrationResult()
    for system in systems:
        bench = tpcc_bench(8, neworder_pct=50, scale=scale)
        if system == "ltpg":
            engine = bench.engine(ltpg_config(bench.batch_size))
            r = steady_state_run(engine, bench.generator, bench.batch_size, rounds)
        else:
            engine = make_engine(system, bench.database, bench.registry)
            r = steady_state_run(
                engine, bench.generator, bench.batch_size, rounds
            )
        result.record(f"TableII 50-8 {system} (MTPS)", r.mtps, PAPER_50_8[system])
    t7 = table7.run()
    for key, target in PAPER_TABLE7.items():
        measured = t7.cells[key].mark_us
        grid, block, h, su = key
        result.record(
            f"TableVII {grid}x{block} hash={h} su={su} (us)", measured, target
        )
    return result
