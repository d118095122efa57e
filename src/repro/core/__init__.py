"""LTPG core: deterministic optimistic concurrency control on the
(simulated) GPU — the paper's primary contribution.

Quickstart::

    from repro.core import LTPGEngine, LTPGConfig
    from repro.workloads.tpcc import build_tpcc

    db, registry, generator = build_tpcc(warehouses=4, seed=7)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=1024))
    stats = engine.run_transactions(generator.make_batch(4096))
    print(stats.throughput_tps, stats.mean_commit_rate)

``run_transactions`` admits through a :class:`~repro.txn.batch.
BatchScheduler` (TIDs assigned, aborts retried) and
:func:`repro.txn.batch.drive`, the one loop every harness uses;
:meth:`LTPGEngine.run_batch` itself takes one batch whose lanes already
carry their TIDs and raises ``TransactionError`` on one that does not.
"""

from repro.core.config import LTPGConfig, MemoryMode
from repro.core.conflict_log import NO_TID, ConflictLog
from repro.core.delayed_update import DelayedUpdater
from repro.core.engine import BatchResult, LTPGEngine
from repro.core.hotspot import HotspotDetector, TableHeat, bucket_size_for
from repro.core.memory_modes import MemoryPlan, resolve_memory_mode
from repro.core.occ import ConflictFlags, abort_reason, commit_mask, logical_order
from repro.core.split_flags import DEFAULT_GROUP, FlagGroups
from repro.core.stats import BatchStats, RunStats

__all__ = [
    "LTPGConfig",
    "MemoryMode",
    "NO_TID",
    "ConflictLog",
    "DelayedUpdater",
    "BatchResult",
    "LTPGEngine",
    "HotspotDetector",
    "TableHeat",
    "bucket_size_for",
    "MemoryPlan",
    "resolve_memory_mode",
    "ConflictFlags",
    "abort_reason",
    "commit_mask",
    "logical_order",
    "DEFAULT_GROUP",
    "FlagGroups",
    "BatchStats",
    "RunStats",
]
