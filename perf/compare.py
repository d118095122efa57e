#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perf/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of runs
of the same code) and ``B`` the candidate; both are ``latest.json``
files written by ``perf/run.py`` without ``--workload`` (use
``--repeat N`` there to put several runs in one file).  For each
end-to-end metric and workload this prints both medians, their ratio
with its base, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``regressed``   it is;
* ``unresolved``  the run-to-run spread of either side is wider than the
                  bound, so the medians cannot settle it — unless every
                  run of B reads better than every run of A.

Per-layer metrics have no bound and get no verdict.  When both files
were made with the same seed, the batch sequences must be identical for
as long as both ran (``batches: identical``): they are a function of the
seed alone.  Exit status is 1 if anything regressed or differs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs((q3 - q1) / median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        return "ok" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(base: dict, cand: dict, spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    same_seed = base.get("seed") == cand.get("seed")
    for workload in (w["name"] for w in spec["workloads"]):
        a_all = base["values"].get(workload, {})
        b_all = cand["values"].get(workload, {})
        print(f"== {workload}")
        for name in list(bounds) + sorted(set(a_all) - set(bounds)):
            a = [v for v in a_all.get(name, []) if v is not None]
            b = [v for v in b_all.get(name, []) if v is not None]
            if not a or not b:
                if name in bounds:
                    print(f"  {name:<44} missing from "
                          f"{'A' if not a else 'B'}")
                    status = 1
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = f"{med_b / med_a:8.4f}x of A" if med_a else "     n/a"
            line = f"  {name:<44} A {med_a:>12.6g}  B {med_b:>12.6g}  {ratio}"
            if name in bounds:
                m = bounds[name]
                word = verdict(a, b, m["better"], m["bound"])
                line += (f"  bound {m['bound']:.3f} ({m['better']} is better)"
                         f"  spread A {spread(a):.3f} B {spread(b):.3f}  {word}")
                if word == "regressed":
                    status = 1
            print(line)
        chain_a = base.get("batch_chain", {}).get(workload)
        chain_b = cand.get("batch_chain", {}).get(workload)
        if same_seed and chain_a and chain_b:
            common = min(len(chain_a), len(chain_b))
            same = chain_a[common - 1] == chain_b[common - 1]
            print(f"  batches: first {common} "
                  f"{'identical' if same else 'DIFFERENT'}")
            if not same:
                status = 1
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        cand = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return compare(base, cand, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
