"""Dynamic hash buckets under the hood: popularity detection and the
atomic-serialization chains they shorten (paper SectionV-C).

Run:  python examples/hotspot_buckets.py

Processes one hot TPC-C batch twice — with standard and with dynamic
buckets — and reports, straight from the engine's conflict log and the
simulator's counters, the per-table popularity verdicts (E = T/D), the
chosen bucket sizes, the longest atomic chain in the execute kernel,
and the resulting simulated phase time.
"""

from __future__ import annotations

import copy
import dataclasses

from repro.bench import ltpg_config
from repro.txn import assign_tids
from repro.workloads.tpcc import TpccMix, build_tpcc


def main() -> None:
    db, registry, generator = build_tpcc(
        warehouses=4, num_items=20_000, seed=7, mix=TpccMix.neworder_percentage(0)
    )
    batch = generator.make_batch(2_048)
    assign_tids(batch, 0)

    from repro.core import LTPGEngine

    for dynamic in (False, True):
        config = dataclasses.replace(
            ltpg_config(2_048), dynamic_buckets=dynamic
        )
        engine = LTPGEngine(db.copy(), registry, config)
        result = engine.run_batch([copy.deepcopy(t) for t in batch])

        label = "dynamic buckets" if dynamic else "standard buckets"
        print(f"== {label} ==")
        stats = result.stats
        print(f"  execute-phase atomics: {stats.atomic_ops:,}, "
              f"longest same-slot chain: {stats.max_atomic_chain:,}")
        print(f"  execute phase: {stats.phase_ns['execute'] / 1e3:.1f} us, "
              f"batch latency: {stats.latency_ns / 1e3:.1f} us")
        if dynamic:
            print("  popularity verdicts (E = T/D):")
            for heat in engine.last_heats.values():
                marker = "HOT" if heat.is_hot else "   "
                print(
                    f"    {marker} {heat.table:>10}: E = {heat.frequency:8.2f} "
                    f"-> bucket size s_u = {heat.bucket_size}"
                )
            standard, large = engine.conflict_log.memory_report()
            total = standard + large
            print(f"  hash-table memory: large buckets "
                  f"{100 * large / total:.2f}% of {total / 1024:.0f} KiB")
        print()


if __name__ == "__main__":
    main()
