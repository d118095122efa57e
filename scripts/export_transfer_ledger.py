#!/usr/bin/env python
"""Export the device backend's per-phase transfer ledger as a JSON
artifact.

Runs the quick transfer-gate configuration (small TPC-C, mockgpu,
the scheduled stream ``BENCH_wallclock.json`` is measured on) and dumps
one steady-state batch's per-phase ledger deltas and their totals.
mockgpu's ledger is deterministic, so the artifact is byte-stable for a
given tree — CI uploads it, so which phase moved which bytes can be
read off the artifact without rerunning anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

WAREHOUSES = 4
BATCH_SIZE = 4096


def measure(backend: str) -> dict:
    from repro.bench import wallclock

    phases: dict[str, dict[str, int]] = {}
    cell = wallclock.measure_path(
        BATCH_SIZE, rounds=1, warehouses=WAREHOUSES, backend=backend,
        transfers_out=phases,
    )
    steady = {
        key: sum(delta[key] for delta in phases.values())
        for key in phases["execute"]
    }
    return {
        "phase_deltas": phases,
        "steady_state": steady,
        "warmup_batches": wallclock.WARMUP_BATCHES,
        "commit_rate": cell["commit_rate"],
        "attempts_per_commit": cell["attempts_per_commit"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="transfer_ledger.json")
    parser.add_argument("--backend", default="mockgpu")
    args = parser.parse_args(argv)

    doc = {
        "config": {
            "workload": "tpcc neworder=50%",
            "warehouses": WAREHOUSES,
            "batch_size": BATCH_SIZE,
            "backend": args.backend,
            "seed": 7,
        },
        **measure(args.backend),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    steady = doc["steady_state"]
    print(
        f"wrote {args.out}: steady state {steady['h2d_bytes']} B h2d / "
        f"{steady['d2h_bytes']} B d2h in {steady['count']} transfers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
