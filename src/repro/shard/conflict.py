"""Per-shard conflict registration with a single minima allocation.

Sharding gives "each shard its own conflict log" without N
copies of the registration tables: the global encoded key space
``base[table] + row * groups[table] + group`` partitions *by row
ownership*, so shard *s*'s log is simply the (disjoint) slice of keys
whose rows it owns.  :class:`ShardedConflictLog` realizes that by
routing every registration call through the partition map — each
per-owner subset is registered with its own ``atomicMin`` pass, exactly
as N independent per-shard logs would — while detection-phase min
queries stay global reads (the union of disjoint scatter-mins is
independent of how the input was split, so the minima arrays hold
byte-identical values to the unsharded log's).

Insert reservations route the same way by *key* ownership.  A
(table, key) pair has exactly one owner, so the winner-per-pair merge
never has to reconcile entries across shards; the cross-call override
semantics of :meth:`ConflictLog.register_inserts` are preserved within
each owner's slice.

This is the "read-set forwarding" half of the multi-home story: a
transaction executing at its coordinator registers reads/writes on
remote rows *at the remote row's owner slice*, so the owning shard's
log sees every access to its data regardless of where the transaction
ran.
"""

from __future__ import annotations

import numpy as np

from repro.core.conflict_log import ConflictLog
from repro.core.hotspot import TableHeat
from repro.core.split_flags import FlagGroups
from repro.gpusim.kernel import KernelContext
from repro.shard.partition import BoundPartition
from repro.storage.database import Database
from repro.xp import ArrayBackend


class ShardedConflictLog(ConflictLog):
    """A :class:`ConflictLog` whose registrations are routed per owning
    shard.  Results are byte-identical to the base log; the per-shard
    registration counters feed the occupancy metrics."""

    def __init__(
        self,
        database: Database,
        flags: FlagGroups,
        partition: BoundPartition,
        dynamic_buckets: bool = True,
        xp: ArrayBackend | None = None,
    ):
        super().__init__(database, flags, dynamic_buckets=dynamic_buckets, xp=xp)
        self.partition = partition
        self.shards = partition.shards
        #: registrations (reads + writes + inserts) per shard, this batch
        self.registrations_by_shard = np.zeros(self.shards, dtype=np.int64)

    def begin_batch(self, heats: dict[int, TableHeat]) -> None:
        super().begin_batch(heats)
        self.registrations_by_shard[:] = 0

    # -- ownership decode ----------------------------------------------------
    def _owners_of_encoded(
        self, keys: np.ndarray, table_ids: np.ndarray
    ) -> np.ndarray:
        """Owning shard per encoded conflict key: invert the encoding to
        a row slot, then apply the partition map.  Registered rows are
        always snapshot slots (registration precedes insert install),
        so the decode stays in range."""
        rows = (keys - self._base[table_ids]) // self._groups[table_ids]
        return self.partition.owner_cells(table_ids, rows)

    # -- routed registration -------------------------------------------------
    def _register(
        self, minima: np.ndarray, keys: np.ndarray, tids: np.ndarray,
        table_ids: np.ndarray, ctx: KernelContext | None, buffer: str,
    ) -> None:
        if keys.size == 0:
            return
        owners = self._owners_of_encoded(keys, table_ids)
        for s, m in self.partition.subsets(owners):
            super()._register(minima, keys[m], tids[m], table_ids[m], ctx, buffer)
            self.registrations_by_shard[s] += int(m.sum())

    def register_inserts(
        self,
        table_ids: np.ndarray,
        insert_keys: np.ndarray,
        tids: np.ndarray,
        ctx: KernelContext | None = None,
    ) -> None:
        if insert_keys.size == 0:
            return
        owners = np.zeros(insert_keys.size, dtype=np.int64)
        for t in np.unique(table_ids):
            m = table_ids == t
            owners[m] = self.partition.owner_keys(int(t), insert_keys[m])
        for s, m in self.partition.subsets(owners):
            super().register_inserts(table_ids[m], insert_keys[m], tids[m], ctx)
            self.registrations_by_shard[s] += int(m.sum())
