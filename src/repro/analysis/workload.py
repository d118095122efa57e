"""The three shipped workloads at analysis scale.

Builds the same three workloads the benchmarks run (TPC-C, YCSB-A,
SmallBank) at a scale small enough to run in seconds, with each
workload's LTPG optimization markings (delayed/split columns, hot
tables) so an engine built from it exercises the exact phase kernels
the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.core.config import LTPGConfig
from repro.core.engine import LTPGEngine
from repro.storage.database import Database
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Transaction

WORKLOAD_NAMES = ("tpcc", "ycsb", "smallbank")

#: Analysis-scale sizing: big enough to hit every phase-kernel code path
#: (conflicts, inserts, delayed adds, hot buckets), small enough that a
#: run finishes in seconds.
DEFAULT_BATCH_SIZE = 512


class _Generator(Protocol):
    def make_batch(self, size: int) -> list[Transaction]: ...


@dataclass
class WorkloadSetup:
    """Everything needed to run one workload."""

    name: str
    database: Database
    registry: ProcedureRegistry
    generator: _Generator
    config_kwargs: dict[str, Any] = field(default_factory=dict)

    def engine(
        self, batch_size: int = DEFAULT_BATCH_SIZE, **overrides: Any
    ) -> LTPGEngine:
        kwargs: dict[str, Any] = dict(self.config_kwargs)
        kwargs.update(overrides)
        config = LTPGConfig(batch_size=batch_size, **kwargs)
        return LTPGEngine(self.database, self.registry, config)


def build_workload(name: str, seed: int = 7) -> WorkloadSetup:
    """Build one of the named workloads at analysis scale."""
    if name == "tpcc":
        from repro.workloads.tpcc import (
            DELAYED_COLUMNS,
            HOT_TABLES,
            SPLIT_COLUMNS,
            TpccMix,
            build_tpcc,
        )

        db, registry, generator = build_tpcc(
            warehouses=2,
            num_items=4096,
            mix=TpccMix.neworder_percentage(50),
            seed=seed,
        )
        return WorkloadSetup(
            name, db, registry, generator,
            config_kwargs=dict(
                delayed_columns=DELAYED_COLUMNS,
                split_columns=SPLIT_COLUMNS,
                hot_tables=HOT_TABLES,
            ),
        )
    if name == "ycsb":
        from repro.workloads.ycsb import build_ycsb, ycsb_delayed_columns

        db, registry, generator = build_ycsb(
            num_records=4096, workload="a", zipf_alpha=2.5, seed=seed
        )
        return WorkloadSetup(
            name, db, registry, generator,
            config_kwargs=dict(
                delayed_columns=ycsb_delayed_columns(),
                hot_tables=frozenset({"usertable"}),
            ),
        )
    if name == "smallbank":
        from repro.workloads.smallbank import build_smallbank

        db, registry, generator = build_smallbank(
            num_accounts=4096, zipf_alpha=1.2, seed=seed
        )
        return WorkloadSetup(name, db, registry, generator)
    raise ValueError(
        f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}"
    )
