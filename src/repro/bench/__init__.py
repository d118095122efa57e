"""Benchmark harnesses regenerating every table and figure of the
paper's evaluation (Section VI): the experiments are rows of one spec
table, :data:`repro.bench.paper.SPECS` (see :mod:`repro.bench.paper`).
``python -m repro.bench`` drives them from the command line and writes
``BENCH_paper.json``; ``benchmarks/bench_paper.py`` wires them into
pytest-benchmark.  ``repro.bench.wallclock`` (host time) and
``repro.bench.serve`` (client latency) write their own files.
"""

from repro.bench.paper import (
    SPECS,
    Spec,
    SteadyStateResult,
    format_metrics,
    format_records,
    format_table,
    ltpg_config,
    run,
    scaled,
    steady_state_run,
    tpcc_bench,
)

__all__ = [
    "SPECS",
    "Spec",
    "SteadyStateResult",
    "format_metrics",
    "format_records",
    "format_table",
    "ltpg_config",
    "run",
    "scaled",
    "steady_state_run",
    "tpcc_bench",
]
