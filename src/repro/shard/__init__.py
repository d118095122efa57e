"""Sharding: the engine's stages partitioned by data ownership.

``LTPGConfig(shards=N)`` keeps one engine and one stage table
(:mod:`repro.core.engine`) and partitions what the stages do:

* **route** — each admitted transaction is classified from its
  parameters alone as single-home (all its keys on one shard) or
  multi-home (spanning shards), then the batch is laid out shard-major
  (:meth:`BoundPartition.route`): within a shard's segment, multi-home
  transactions lead in Calvin's deterministic order (the cross-shard
  sequencer), followed by single-home ones in admission order.
* **execute** — one in-process pass over the shard-major batch; the
  shards partition data and bookkeeping, not host threads.
* **conflict** — the conflict log is a :class:`ShardedConflictLog`:
  registrations are routed to the owning shard's slice of the key space
  (the read-set forwarding for multi-home transactions), detection
  reads stay global.
* **write-back** — committed write/add cells and delayed-update deltas
  are partitioned by row owner and applied shard by shard in fixed
  ascending order; insert installs remain a single pass in global
  ``(admission rank, seq)`` order — the deterministic cross-shard
  commit point for client-keyed inserts.

**Determinism argument.**  The reorder and the per-shard splits cannot
change outcomes: conflict verdicts depend only on (key, TID) minima,
which are insensitive to registration order and to how disjoint subsets
are split across calls; committed write cells are WAW-disjoint and adds
commute, so the fixed shard-order scatter produces the same snapshot;
inserts claim slots by admission rank, whatever the lane order; and
result lists are built in admission order.  Hence ``shards=N`` is
byte-identical to ``shards=1``.  (Simulated *timings* for N > 1 differ —
registrations arrive as per-shard kernel sub-passes — but final states
and per-transaction outcomes do not.)

Counter-keyed TPC-C tables (orders, new_order, order_line, history)
take the default ``mod`` ownership rule: a single-home NewOrder still
*inserts* rows whose keys hash to other shards.  That is deliberate and
honest — those installs flow through the central deterministic insert
step above, and their conflict reservations are routed to the owning
slice like any other access.
"""

from repro.shard.conflict import ShardedConflictLog
from repro.shard.partition import (
    MOD,
    BoundPartition,
    PartitionSpec,
    TableRule,
    Unpartitioned,
    div_mod,
    resolve_spec,
)

__all__ = [
    "MOD",
    "BoundPartition",
    "PartitionSpec",
    "ShardedConflictLog",
    "TableRule",
    "Unpartitioned",
    "div_mod",
    "resolve_spec",
]
