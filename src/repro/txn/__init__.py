"""Transaction layer: operations, contexts, procedures, batching,
sub-transaction decomposition.

Shared by LTPG and every baseline so that engine comparisons isolate
the concurrency-control protocol.
"""

from repro.txn.batch import BatchScheduler, drive
from repro.txn.context import BufferedContext, LocalSets, apply_local_sets
from repro.txn.decompose import (
    ExecutionPlan,
    plan,
    plan_arrays,
    plan_grouped,
    plan_naive,
)
from repro.txn.operations import (
    NUM_OP_KINDS,
    OpColumns,
    OpKind,
    OpRecord,
    column_name,
    intern_column,
)
from repro.txn.procedures import Procedure, ProcedureRegistry
from repro.txn.transaction import Transaction, TxnStatus, assign_tids

__all__ = [
    "BatchScheduler",
    "BufferedContext",
    "LocalSets",
    "apply_local_sets",
    "ExecutionPlan",
    "plan",
    "plan_arrays",
    "plan_grouped",
    "plan_naive",
    "NUM_OP_KINDS",
    "OpColumns",
    "OpKind",
    "OpRecord",
    "column_name",
    "intern_column",
    "Procedure",
    "ProcedureRegistry",
    "Transaction",
    "TxnStatus",
    "assign_tids",
    "drive",
]
