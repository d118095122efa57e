"""The paper's experiments under pytest-benchmark: every spec of
``repro.bench.paper.SPECS`` at ``bench_scale``, printed and held to the
spec's who-wins shape predicate (the same predicate the tier-1 smoke
cases and the committed ``BENCH_paper.json`` are held to)."""

from __future__ import annotations

import pytest

from bench_util import run_once
from repro.bench import paper

#: Narrower grids than the CLI's where the full one takes minutes: the
#: 8-warehouse column is where the paper's Table II/III shapes are read.
AXES = {
    "table2": dict(warehouses=(8,)),
    "table3": dict(warehouses=(8,), batch=(2**8, 2**10, 2**12, 2**14)),
}


@pytest.mark.parametrize("name", paper.SPECS)
def test_paper_experiment(benchmark, bench_scale, bench_rounds, name):
    spec = paper.SPECS[name]
    records = run_once(
        benchmark,
        lambda: paper.run(name, bench_scale, bench_rounds, **AXES.get(name, {})),
    )
    print()
    print(paper.format_records(spec, records))
    spec.shape(dict(records), bench_scale)
