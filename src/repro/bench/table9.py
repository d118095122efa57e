"""Table IX: per-phase time under zero-copy vs unified memory.

The paper runs warehouse scales {32, 512} in zero-copy mode (the
database fits on the device) and {1024, 2048} in unified-memory mode
(it does not), batch 16384.  Expected shape: zero-copy phase times are
flat in database size; unified-memory phase times inflate severely —
especially execution and write-back — because the working set faults
pages in through PCIe.  In the model, zero-copy differs from device
mode only by its cheaper per-transfer DMA latency
(:func:`repro.core.memory_modes.transfer_latency_factor`), and unified
memory by the page faults the engine counts on the pages its stages
touch.

To keep the harness laptop-sized, the scaled run shrinks the item table
and the simulated device memory together so that the two large scales
genuinely overflow the device, reproducing the paging behaviour rather
than the raw gigabytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.bench.common import ltpg_config, scaled
from repro.bench.reporting import format_table
from repro.bench.runner import steady_state_run
from repro.core.config import MemoryMode
from repro.core.engine import LTPGEngine
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.workloads.tpcc import TpccMix, build_tpcc, tpcc_nbytes
from repro.workloads.tpcc.schema import TpccScale

ZERO_COPY_SCALES: tuple[int, ...] = (32, 512)
UNIFIED_SCALES: tuple[int, ...] = (1024, 2048)


@dataclass
class Table9Result:
    """phase microseconds per warehouse scale."""

    phases: dict[int, dict[str, float]] = field(default_factory=dict)
    modes: dict[int, str] = field(default_factory=dict)

    def format(self) -> str:
        headers = ["scale", "mode", "execute", "conflict", "writeback"]
        rows = []
        for w in sorted(self.phases):
            p = self.phases[w]
            rows.append(
                [
                    w,
                    self.modes[w],
                    p.get("execute", 0.0) / 1e3,
                    p.get("conflict", 0.0) / 1e3,
                    p.get("writeback", 0.0) / 1e3,
                ]
            )
        return format_table(
            "Table IX: per-phase time (us), zero-copy vs unified memory",
            headers,
            rows,
        )


def run(
    scale: float = 32.0,
    rounds: int = 2,
    seed: int = 7,
) -> Table9Result:
    result = Table9Result()
    items = scaled(100_000, scale, minimum=512)
    batch = scaled(16_384, scale, minimum=32)
    # The warehouse *counts* scale down with everything else; rows keep
    # the paper's labels.  The simulated device is sized so that the two
    # unified-memory scales genuinely overflow it.
    effective = {w: scaled(w, scale) for w in ZERO_COPY_SCALES + UNIFIED_SCALES}
    threshold_bytes = tpcc_nbytes(
        TpccScale(warehouses=effective[UNIFIED_SCALES[0]], num_items=items)
    )
    device_config = dataclasses.replace(
        DeviceConfig(), device_memory_bytes=int(threshold_bytes * 0.9)
    )
    for w in ZERO_COPY_SCALES + UNIFIED_SCALES:
        db, registry, generator = build_tpcc(
            warehouses=effective[w],
            num_items=items,
            mix=TpccMix.neworder_percentage(50),
            seed=seed,
        )
        mode = (
            MemoryMode.ZERO_COPY if w in ZERO_COPY_SCALES else MemoryMode.UNIFIED
        )
        config = ltpg_config(batch, memory_mode=mode)
        engine = LTPGEngine(db, registry, config, Device(device_config))
        r = steady_state_run(engine, generator, batch, rounds)
        totals = r.run.phase_totals()
        n = max(1, r.run.num_batches)
        result.phases[w] = {k: v / n for k, v in totals.items()}
        result.modes[w] = mode.value
    return result
