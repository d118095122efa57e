"""Partition specs: how rows and transactions map to engine shards.

A :class:`PartitionSpec` is a *workload-level* description — per-table
ownership rules plus a transaction classifier — and a
:class:`BoundPartition` is that spec resolved against a concrete
database and shard count.  Ownership is a pure function of a row's
primary key, so every pipeline stage (conflict registration, write-back
scatters, delayed-update merges) can route a cell to its owning shard
without any coordination, and the same function classifies a
transaction from its parameters alone:

* **single-home** — every key the transaction can touch lives on one
  shard; it executes entirely there, with no cross-shard traffic.
* **multi-home** — its key set spans shards; the route stage runs it
  at a deterministic coordinator (the smallest home shard) and
  sequences it with Calvin's deterministic order
  (:func:`repro.baselines.calvin.deterministic_order`).

Three rule forms cover the supported workloads:

* ``mod``      — ``key % shards`` (warehouse-keyed TPC-C tables, and
  the default for client-counter-keyed tables like orders/history).
* ``div_mod``  — ``(key // divisor) % shards`` for composite keys that
  embed a warehouse (district ``w*10+d``, customer, stock).
* ``block``    — contiguous key ranges: ``min(key // block, shards-1)``
  with ``block = ceil(initial_rows / shards)`` (SmallBank accounts,
  YCSB records); keys appended past the loaded range belong to the
  last shard.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.baselines.calvin import deterministic_order
from repro.errors import ConfigError
from repro.storage.database import Database


@dataclass(frozen=True)
class TableRule:
    """Ownership rule for one table's primary keys."""

    form: str  # "mod" | "div_mod" | "block"
    divisor: int = 1

    def __post_init__(self) -> None:
        if self.form not in ("mod", "div_mod", "block"):
            raise ConfigError(f"unknown partition rule form {self.form!r}")
        if self.divisor < 1:
            raise ConfigError("partition rule divisor must be >= 1")


MOD = TableRule("mod")


def div_mod(divisor: int) -> TableRule:
    return TableRule("div_mod", divisor)


@dataclass(frozen=True)
class PartitionSpec:
    """A workload's partition map.

    ``rules_for`` builds the per-table rules against a loaded database
    (some divisors depend on load-time sizes, e.g. TPC-C's stock keys
    embed ``num_items``); tables it does not name fall back to
    ``default``.  ``classify`` returns the sorted tuple of home shards
    a transaction's parameters reach.
    """

    name: str
    rules_for: Callable[[Database], dict[str, TableRule]]
    default: TableRule
    classify: Callable[..., tuple[int, ...]]


class Unpartitioned:
    """``shards=1``: a batch runs as admitted and every cell has the
    same owner.  The two calls the engine's stages make of a partition,
    answered trivially."""

    shards = 1

    def route(self, batch) -> None:
        """Leave the lanes in admission order."""

    def owner_subsets(self, table_ids: np.ndarray, rows: np.ndarray):
        yield slice(None)


class BoundPartition:
    """A :class:`PartitionSpec` resolved against one database and a
    fixed shard count: vectorized key->owner and (table, row)->owner
    maps, shared by the route stage, the sharded conflict log, and the
    write-back."""

    def __init__(self, spec: PartitionSpec, database: Database, shards: int):
        if shards < 1:
            raise ConfigError("shard count must be >= 1")
        self.spec = spec
        self.database = database
        self.shards = shards
        rules = spec.rules_for(database)
        # per table id: (form, parameter) with block sizes fixed at
        # bind time — ownership must not drift as tables grow, or a
        # row would change shards mid-run.
        self._forms: list[str] = []
        self._params: list[int] = []
        for t in range(database.num_tables):
            table = database.table_by_id(t)
            rule = rules.get(table.name, spec.default)
            if rule.form == "block":
                block = -(-max(1, table.num_rows) // shards)  # ceil div
                self._forms.append("block")
                self._params.append(block)
            else:
                self._forms.append(rule.form)
                self._params.append(rule.divisor)

    # -- vectorized ownership ------------------------------------------------
    def owner_keys(self, table_id: int, keys: np.ndarray) -> np.ndarray:
        """Owning shard of each primary key of one table."""
        form = self._forms[table_id]
        param = self._params[table_id]
        keys = np.asarray(keys, dtype=np.int64)
        if form == "mod":
            return keys % self.shards
        if form == "div_mod":
            return (keys // param) % self.shards
        return np.minimum(keys // param, self.shards - 1)

    def owner_key(self, table_name: str, key: int) -> int:
        """Scalar ownership lookup (the classifier hot path)."""
        table_id = self.database.table_id(table_name)
        form = self._forms[table_id]
        param = self._params[table_id]
        if form == "mod":
            return int(key) % self.shards
        if form == "div_mod":
            return (int(key) // param) % self.shards
        return min(int(key) // param, self.shards - 1)

    def owner_cells(self, table_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Owning shard of each (table, row-slot) cell.  Row slots are
        snapshot slots (< the row count when the batch began), so the
        key gather is always in range."""
        owners = np.zeros(rows.size, dtype=np.int64)
        if rows.size == 0:
            return owners
        for t in np.unique(table_ids):
            m = table_ids == t
            keys = self.database.table_by_id(int(t)).keys_of_rows(rows[m])
            owners[m] = self.owner_keys(int(t), keys)
        return owners

    def subsets(self, owners: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """``(shard, mask)`` for each shard that owns something, in
        fixed ascending shard order."""
        for s in range(self.shards):
            m = owners == s
            if m.any():
                yield s, m

    def owner_subsets(
        self, table_ids: np.ndarray, rows: np.ndarray
    ) -> Iterator[np.ndarray]:
        """The cells partitioned by owner (the write-back's unit)."""
        for _, m in self.subsets(self.owner_cells(table_ids, rows)):
            yield m

    def classify(self, txn) -> tuple[int, ...]:
        """Sorted home-shard tuple of one transaction."""
        return self.spec.classify(txn, self)

    # -- routing -------------------------------------------------------------
    def plan_batch(self, transactions) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Classify and order one batch.

        Returns ``(order, coordinators, multi_mask)`` where ``order``
        is the shard-major permutation (admission indices) and the
        other two are per admission index.  Pure function of parameters
        and TIDs — identical on every replay, and the identity on a
        batch that is already shard-major (a logged one, at recovery).
        """
        n = len(transactions)
        coord = np.zeros(n, dtype=np.int64)
        multi = np.zeros(n, dtype=bool)
        for i, txn in enumerate(transactions):
            homes = self.classify(txn)
            coord[i] = homes[0] if homes else 0
            multi[i] = len(homes) > 1
        order: list[int] = []
        pos = {id(t): i for i, t in enumerate(transactions)}
        for s in range(self.shards):
            seg_multi = [
                transactions[i] for i in range(n) if coord[i] == s and multi[i]
            ]
            # the Calvin sequencer: multi-home transactions commit in
            # the agreed deterministic order, ahead of the shard's
            # single-home segment
            order.extend(pos[id(t)] for t in deterministic_order(seg_multi))
            order.extend(i for i in range(n) if coord[i] == s and not multi[i])
        return order, coord, multi

    def route(self, batch) -> None:
        """The route stage under sharding: lay the batch out shard-major
        — each shard's multi-home transactions (executing at their
        coordinator, the smallest home shard) ahead of its single-home
        ones — and leave the routing tallies on the batch record."""
        t0 = time.perf_counter_ns()
        order, coord, multi = self.plan_batch(batch.admitted)
        batch.lay_out(order)
        stall_ns = time.perf_counter_ns() - t0
        lanes = np.bincount(coord, minlength=self.shards)
        batch.shard_lanes = lanes
        batch.multi_home_fraction = float(multi.sum()) / len(order)
        batch.shard_balance = float(lanes.max() / lanes.mean())
        batch.sequencer_stall_ns = int(stall_ns)
        batch.clocks.host_s["sequencer"] = stall_ns * 1e-9

    def profile(self) -> dict[str, list[int]]:
        """Per-table row counts by owning shard — the balance ledger
        the wallclock bench publishes."""
        return self.database.partition_profile(self.owner_keys, self.shards)


def resolve_spec(database: Database) -> PartitionSpec:
    """The partition spec of the workload ``database`` holds, recognized
    from its table names."""
    tables = {database.table_by_id(t).name for t in range(database.num_tables)}
    # Lazy imports: the workload modules import this module for the
    # rule/spec types, so the registry must not import them at load time.
    if "warehouse" in tables:
        from repro.workloads.tpcc.partition import tpcc_partition_spec

        return tpcc_partition_spec()
    if "usertable" in tables:
        from repro.workloads.ycsb.generator import ycsb_partition_spec

        return ycsb_partition_spec()
    if "smallbank" in tables:
        from repro.workloads.smallbank import smallbank_partition_spec

        return smallbank_partition_spec()
    raise ConfigError(
        f"shards > 1 needs a partition spec, and no shipped workload "
        f"(tpcc, ycsb, smallbank) has the table names {sorted(tables)}"
    )
