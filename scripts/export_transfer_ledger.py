#!/usr/bin/env python
"""Export the per-phase transfer ledger (resident vs non-resident) as a
JSON artifact.

Runs the quick transfer-gate configuration (small TPC-C, mockgpu) both
with and without ``device_resident`` and dumps each path's steady-state
per-phase ledger deltas plus the final-state digests.  mockgpu's ledger
is deterministic, so the artifact is byte-stable for a given tree —
CI uploads it next to the kernellint SARIF so a reviewer can see
exactly where residency moved the bytes without rerunning anything.
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


def measure(device_resident: bool, backend: str) -> dict:
    from repro.bench.common import ltpg_config, tpcc_bench

    bench = tpcc_bench(
        WAREHOUSES, neworder_pct=50, batch_size=BATCH_SIZE, seed=7
    )
    config = dataclasses.replace(
        ltpg_config(BATCH_SIZE),
        batched_exec=True, array_backend=backend,
        device_resident=device_resident,
    )
    engine = bench.engine(config)
    try:
        per_batch = []
        for _ in range(BATCHES):
            engine.run_batch(bench.generator.make_batch(BATCH_SIZE))
            per_batch.append(engine.last_phase_transfers)
        if engine._residency is not None:
            engine._residency.sync_all_to_host()
        digest = bench.database.state_digest()
    finally:
        engine.close()
    return {
        "device_resident": device_resident,
        "phase_deltas_per_batch": per_batch,
        "steady_state": engine.last_transfers,
        "state_digest": digest,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="transfer_ledger.json")
    parser.add_argument("--backend", default="mockgpu")
    args = parser.parse_args(argv)

    from repro.xp import available_backends

    if args.backend not in available_backends() or args.backend == "numpy":
        print(f"skipped: backend {args.backend!r} has no transfer ledger")
        return 0
    doc = {
        "config": {
            "workload": "tpcc neworder=50%",
            "warehouses": WAREHOUSES,
            "batch_size": BATCH_SIZE,
            "batches": BATCHES,
            "backend": args.backend,
            "seed": 7,
        },
        "paths": {
            "resident": measure(True, args.backend),
            "baseline": measure(False, args.backend),
        },
    }
    r = doc["paths"]["resident"]["steady_state"]
    b = doc["paths"]["baseline"]["steady_state"]
    doc["summary"] = {
        "steady_h2d_reduction_x": round(
            b["h2d_bytes"] / max(r["h2d_bytes"], 1), 2
        ),
        "steady_total_reduction_x": round(
            (b["h2d_bytes"] + b["d2h_bytes"])
            / max(r["h2d_bytes"] + r["d2h_bytes"], 1),
            2,
        ),
        "digests_identical": (
            doc["paths"]["resident"]["state_digest"]
            == doc["paths"]["baseline"]["state_digest"]
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {args.out}: steady H2D reduction "
        f"{doc['summary']['steady_h2d_reduction_x']}x, total "
        f"{doc['summary']['steady_total_reduction_x']}x, digests "
        f"identical={doc['summary']['digests_identical']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
