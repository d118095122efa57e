"""Transaction decomposition and adaptive warp division (paper §V-B).

LTPG splits each transaction into fine-grained sub-transactions (its
individual operations) and groups sub-transactions of the same type —
same :class:`~repro.txn.operations.OpKind` on the same table — into
dedicated warps, so all 32 lanes of a warp execute identical
instructions.  The alternative ("naive" task parallelism, one thread
per transaction) makes lanes of one warp walk different instruction
streams and diverge at every mismatched step.

:func:`plan_grouped` and :func:`plan_naive` compute both assignments
over the same executed batch and report warp counts, lane utilization
and divergence events; the engine feeds those numbers to the simulator.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.gpusim.config import WARP_SIZE
from repro.txn.operations import OpKind
from repro.txn.transaction import Transaction
from repro.xp import sorted_runs


@dataclass(frozen=True)
class ExecutionPlan:
    """The shape of one phase's warp assignment."""

    mode: str  # "grouped" | "naive"
    total_ops: int
    warps: int
    #: Lanes that carry an op, divided by lanes launched.
    utilization: float
    #: Warp-level divergence events (branch splits both-paths-executed).
    divergent_branches: int
    #: ops per (kind, table_id) group — the warp classes.
    group_sizes: dict[tuple[int, int], int]

    @property
    def threads(self) -> int:
        return self.warps * WARP_SIZE


def _ops_by_group(transactions: list[Transaction]) -> dict[tuple[int, int], int]:
    groups: dict[tuple[int, int], int] = defaultdict(int)
    for txn in transactions:
        for op in txn.ops:
            groups[(int(op.kind), op.table_id)] += 1
    return dict(groups)


def plan_grouped(transactions: list[Transaction]) -> ExecutionPlan:
    """Adaptive warp division: one warp class per (op kind, table).

    Within a class every lane runs the same instruction stream, so the
    only waste is the partially-filled trailing warp of each class; no
    divergence occurs.
    """
    groups = _ops_by_group(transactions)
    total_ops = sum(groups.values())
    warps = sum(-(-count // WARP_SIZE) for count in groups.values())
    lanes = warps * WARP_SIZE
    return ExecutionPlan(
        mode="grouped",
        total_ops=total_ops,
        warps=warps,
        utilization=total_ops / lanes if lanes else 1.0,
        divergent_branches=0,
        group_sizes=groups,
    )


def plan_naive(transactions: list[Transaction]) -> ExecutionPlan:
    """Task parallelism: thread *i* executes transaction *i* start to
    finish; 32 consecutive transactions share a warp.

    At each step, the warp must serially execute one masked pass per
    distinct op class present among its active lanes — every extra class
    is a divergence event.
    """
    groups = _ops_by_group(transactions)
    total_ops = sum(groups.values())
    warps = -(-len(transactions) // WARP_SIZE) if transactions else 0
    divergence = 0
    lane_steps = 0
    for w in range(warps):
        members = transactions[w * WARP_SIZE : (w + 1) * WARP_SIZE]
        depth = max((len(t.ops) for t in members), default=0)
        lane_steps += depth * WARP_SIZE
        for step in range(depth):
            classes = {
                (int(t.ops[step].kind), t.ops[step].table_id)
                for t in members
                if step < len(t.ops)
            }
            if len(classes) > 1:
                divergence += len(classes) - 1
    return ExecutionPlan(
        mode="naive",
        total_ops=total_ops,
        warps=warps,
        utilization=total_ops / lane_steps if lane_steps else 1.0,
        divergent_branches=divergence,
        group_sizes=groups,
    )


def plan(transactions: list[Transaction], grouped: bool) -> ExecutionPlan:
    """Dispatch on the adaptive-warp-division toggle."""
    return plan_grouped(transactions) if grouped else plan_naive(transactions)


# -- columnar (array) planning ------------------------------------------------
# The engine's columnar hot path has the whole batch's op stream as flat
# arrays already; these planners produce the exact same ExecutionPlan as
# their object-walking twins above without materializing OpRecords.


def _group_sizes_from_arrays(
    kinds: np.ndarray, tables: np.ndarray
) -> dict[tuple[int, int], int]:
    if kinds.size == 0:
        return {}
    # the (kind, table) code space is tiny: count it, do not sort it
    span = int(tables.max()) + 1
    counts = np.bincount(kinds * span + tables)
    return {
        (int(e // span), int(e % span)): int(counts[e]) for e in np.flatnonzero(counts)
    }


def plan_grouped_arrays(kinds: np.ndarray, tables: np.ndarray) -> ExecutionPlan:
    """Array twin of :func:`plan_grouped` over flat batch op columns."""
    groups = _group_sizes_from_arrays(kinds, tables)
    total_ops = int(kinds.size)
    warps = sum(-(-count // WARP_SIZE) for count in groups.values())
    lanes = warps * WARP_SIZE
    return ExecutionPlan(
        mode="grouped",
        total_ops=total_ops,
        warps=warps,
        utilization=total_ops / lanes if lanes else 1.0,
        divergent_branches=0,
        group_sizes=groups,
    )


def plan_naive_arrays(
    kinds: np.ndarray, tables: np.ndarray, counts: np.ndarray
) -> ExecutionPlan:
    """Array twin of :func:`plan_naive`.

    ``counts[i]`` is the number of ops of transaction *i*; ops are laid
    out transaction-major in ``kinds``/``tables``.
    """
    groups = _group_sizes_from_arrays(kinds, tables)
    total_ops = int(kinds.size)
    n_txns = int(counts.size)
    warps = -(-n_txns // WARP_SIZE) if n_txns else 0
    if warps == 0:
        return ExecutionPlan("naive", 0, 0, 1.0, 0, groups)
    warp_of_txn = np.arange(n_txns, dtype=np.int64) // WARP_SIZE
    depth = np.zeros(warps, dtype=np.int64)
    np.maximum.at(depth, warp_of_txn, counts)
    lane_steps = int(depth.sum()) * WARP_SIZE
    divergence = 0
    if total_ops:
        txn_of_op = np.repeat(np.arange(n_txns, dtype=np.int64), counts)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1])
        )
        step = np.arange(total_ops, dtype=np.int64) - offsets[txn_of_op]
        warp = warp_of_txn[txn_of_op]
        span = int(tables.max()) + 1
        cls = kinds * span + tables
        # Distinct (warp, step, class) triples, then distinct classes per
        # (warp, step): every class beyond the first is one divergence
        # event — identical to the per-step set arithmetic above.
        order, triples = sorted_runs(warp, step, cls)
        heads = order[triples]
        _, steps = sorted_runs(warp[heads], step[heads])
        divergence = triples.size - steps.size
    return ExecutionPlan(
        mode="naive",
        total_ops=total_ops,
        warps=warps,
        utilization=total_ops / lane_steps if lane_steps else 1.0,
        divergent_branches=divergence,
        group_sizes=groups,
    )


def plan_arrays(
    kinds: np.ndarray, tables: np.ndarray, counts: np.ndarray, grouped: bool
) -> ExecutionPlan:
    """Columnar dispatch on the adaptive-warp-division toggle."""
    if grouped:
        return plan_grouped_arrays(kinds, tables)
    return plan_naive_arrays(kinds, tables, counts)
