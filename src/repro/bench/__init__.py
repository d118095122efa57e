"""Benchmark harnesses regenerating every table and figure of the
paper's evaluation (Section VI).

Each module exposes ``run(scale=...) -> *Result`` with a ``format()``
method printing the paper-shaped table.  Whatever runs batches back to
back — :func:`steady_state_run` for LTPG and for the baselines, the
host wall-clock harness — drives its engine through
:func:`repro.txn.batch.drive`: full batches, TIDs assigned, aborts
re-queued ahead of fresh load.  ``python -m repro.bench``
drives them from the command line; the ``benchmarks/`` directory wires
them into pytest-benchmark.
"""

from repro.bench import (
    ablations,
    calibration,
    fig6,
    fig7,
    fullmix,
    serve,
    sweep,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.bench.common import ltpg_config, scaled, tpcc_bench
from repro.bench.reporting import format_table, mtps, us
from repro.bench.runner import (
    SteadyStateResult,
    steady_state_run,
)

__all__ = [
    "ablations",
    "calibration",
    "fig6",
    "fig7",
    "fullmix",
    "serve",
    "sweep",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "ltpg_config",
    "scaled",
    "tpcc_bench",
    "format_table",
    "mtps",
    "us",
    "SteadyStateResult",
    "steady_state_run",
]
