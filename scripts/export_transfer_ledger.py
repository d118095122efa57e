#!/usr/bin/env python
"""Export the device backend's per-phase transfer ledger as a JSON
artifact.

Runs the quick transfer-gate configuration (small TPC-C, mockgpu) and
dumps every batch's per-phase ledger deltas, the steady-state totals
and the final-state digest.  mockgpu's ledger is deterministic, so the
artifact is byte-stable for a given tree — CI uploads it next to the
kernellint SARIF so a reviewer can see exactly which phase moved which
bytes without rerunning anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

WAREHOUSES = 4
BATCH_SIZE = 4096
BATCHES = 3


def measure(backend: str) -> dict:
    from repro.bench.common import ltpg_config, tpcc_bench

    bench = tpcc_bench(
        WAREHOUSES, neworder_pct=50, batch_size=BATCH_SIZE, seed=7
    )
    config = dataclasses.replace(ltpg_config(BATCH_SIZE), array_backend=backend)
    with bench.engine(config) as engine:
        per_batch = []
        for _ in range(BATCHES):
            engine.run_batch(bench.generator.make_batch(BATCH_SIZE))
            per_batch.append(engine.last_phase_transfers)
        steady = engine.last_transfers
    return {
        "phase_deltas_per_batch": per_batch,
        "steady_state": steady,
        "state_digest": bench.database.state_digest(),
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
            "batches": BATCHES,
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
