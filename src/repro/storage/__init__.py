"""In-memory columnar storage: schemas, tables, indexes, snapshots, logs.

This is the shared substrate under every engine in the reproduction —
LTPG and all eight baselines operate on the same :class:`Database` so
that throughput comparisons measure concurrency control, not storage.
"""

from repro.storage.database import Database
from repro.storage.index import OrderedIndex, PrimaryIndex
from repro.storage.recovery import RecoveryReport, recover
from repro.storage.schema import ColumnDef, Schema, make_schema
from repro.storage.snapshot import Snapshot, SnapshotManager
from repro.storage.table import Table
from repro.storage.wal import BatchLog, BatchRecord, LogRecord

__all__ = [
    "Database",
    "RecoveryReport",
    "recover",
    "OrderedIndex",
    "PrimaryIndex",
    "ColumnDef",
    "Schema",
    "make_schema",
    "Snapshot",
    "SnapshotManager",
    "Table",
    "BatchLog",
    "BatchRecord",
    "LogRecord",
]
