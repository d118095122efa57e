"""TPC-C workload: schema, loader, procedures, generator.

``build_tpcc`` wires everything together::

    db, registry, generator = build_tpcc(warehouses=8, seed=7)
"""

from __future__ import annotations

from repro.storage.database import Database
from repro.txn.procedures import ProcedureRegistry
from repro.workloads.tpcc.generator import TpccGenerator, TpccMix
from repro.workloads.tpcc.loader import load_tpcc, tpcc_nbytes
from repro.workloads.tpcc.procedures import (
    DELAYED_COLUMNS,
    HOT_TABLES,
    SPLIT_COLUMNS,
    register_procedures,
)
from repro.workloads.tpcc.schema import (
    CUSTOMERS_PER_DISTRICT,
    DEFAULT_NUM_ITEMS,
    DISTRICTS_PER_WAREHOUSE,
    MAX_ORDER_LINES,
    TpccScale,
)


def build_tpcc(
    warehouses: int,
    num_items: int = DEFAULT_NUM_ITEMS,
    mix: TpccMix | None = None,
    seed: int = 7,
) -> tuple[Database, ProcedureRegistry, TpccGenerator]:
    """Load a TPC-C instance and return (database, procedures, generator)."""
    scale = TpccScale(warehouses=warehouses, num_items=num_items)
    db = load_tpcc(scale, seed=seed)
    registry = ProcedureRegistry()
    register_procedures(registry, scale)
    generator = TpccGenerator(scale, mix=mix, seed=seed)
    return db, registry, generator


__all__ = [
    "build_tpcc",
    "load_tpcc",
    "tpcc_nbytes",
    "register_procedures",
    "TpccGenerator",
    "TpccMix",
    "TpccScale",
    "DELAYED_COLUMNS",
    "SPLIT_COLUMNS",
    "HOT_TABLES",
    "CUSTOMERS_PER_DISTRICT",
    "DISTRICTS_PER_WAREHOUSE",
    "DEFAULT_NUM_ITEMS",
    "MAX_ORDER_LINES",
]
