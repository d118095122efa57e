"""Shared setup helpers for the benchmark harnesses.

Every experiment accepts a ``scale`` divisor that shrinks the batch size
and the item-table size *together*, preserving the contention ratios
(``E = T/D`` and the stock birthday-collision rate) that the paper's
commit rates depend on.  ``scale=1`` is the paper's full configuration;
the pytest benchmarks default to a larger divisor so the whole suite
runs in minutes (see EXPERIMENTS.md for full-scale instructions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LTPGConfig
from repro.core.engine import LTPGEngine
from repro.gpusim.device import Device
from repro.storage.database import Database
from repro.txn.procedures import ProcedureRegistry
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    HOT_TABLES,
    SPLIT_COLUMNS,
    TpccGenerator,
    TpccMix,
    build_tpcc,
)

#: The paper's headline configuration.
PAPER_BATCH = 16_384
PAPER_ITEMS = 100_000

#: Default measurement length (the paper runs 5,000 batches; a handful
#: is enough for the simulated clock, which has no warm-up noise).
DEFAULT_ROUNDS = 4


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """``value / scale`` with a floor, for contention-preserving scaling."""
    return max(minimum, int(round(value / scale)))


def ltpg_config(batch_size: int, **overrides) -> LTPGConfig:
    """An LTPG configuration with the TPC-C optimization markings."""
    defaults = dict(
        batch_size=batch_size,
        delayed_columns=DELAYED_COLUMNS,
        split_columns=SPLIT_COLUMNS,
        hot_tables=HOT_TABLES,
    )
    defaults.update(overrides)
    return LTPGConfig(**defaults)


@dataclass
class TpccBench:
    """One ready-to-run TPC-C setup."""

    database: Database
    registry: ProcedureRegistry
    generator: TpccGenerator
    batch_size: int

    def engine(
        self, config: LTPGConfig | None = None, device: Device | None = None
    ) -> LTPGEngine:
        return LTPGEngine(
            self.database,
            self.registry,
            config or ltpg_config(self.batch_size),
            device=device,
        )


def tpcc_bench(
    warehouses: int,
    neworder_pct: int = 50,
    batch_size: int = PAPER_BATCH,
    scale: float = 1.0,
    seed: int = 7,
    num_items: int = PAPER_ITEMS,
) -> TpccBench:
    """Build a scaled TPC-C benchmark setup."""
    batch = scaled(batch_size, scale, minimum=32)
    items = scaled(num_items, scale, minimum=512)
    db, registry, generator = build_tpcc(
        warehouses=warehouses,
        num_items=items,
        mix=TpccMix.neworder_percentage(neworder_pct),
        seed=seed,
    )
    return TpccBench(db, registry, generator, batch)
