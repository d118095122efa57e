"""YCSB core workloads A-E over one ``usertable``.

Adaptations mirroring the paper's GPU setting (see EXPERIMENTS.md):

* Each transaction groups 10 YCSB operations (the paper: "each
  transaction ... contain[s] 10 operations").
* Keys follow a bounded Zipfian with configurable exponent (the paper's
  high-contention setting uses alpha = 2.5, under which ~75% of draws
  hit the single hottest key).
* Updates are commutative ADDs on field ``f0``, managed by LTPG's
  delayed-update optimization, while reads fetch field ``f1`` — field
  level separation that row-level conflict-flag splitting provides.
  Without it, alpha = 2.5 would reduce every update-bearing workload to
  one commit per batch (``commutative_updates=False`` reproduces that
  collapse for the ablation example).
* Scans (workload E) read a short contiguous key range through the
  pre-resolved-key access path (hash indexes cannot range-scan).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.storage.database import Database
from repro.storage.schema import make_schema
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Transaction
from repro.workloads.rand import ZipfGenerator

#: YCSB rows carry ten fields; we materialize two (the update target and
#: the read target) plus padding fields to keep row width realistic.
USERTABLE = make_schema(
    "usertable", "y_key", "f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"
)

OPS_PER_TXN = 10
SCAN_LENGTH = 10
DEFAULT_ZIPF_ALPHA = 2.5


@dataclass(frozen=True)
class YcsbWorkload:
    """Operation mix of one YCSB core workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    read_latest: bool = False

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"workload {self.name}: mix sums to {total}")


WORKLOADS: dict[str, YcsbWorkload] = {
    "a": YcsbWorkload("a", read=0.5, update=0.5),
    "b": YcsbWorkload("b", read=0.95, update=0.05),
    "c": YcsbWorkload("c", read=1.0),
    "d": YcsbWorkload("d", read=0.95, insert=0.05, read_latest=True),
    "e": YcsbWorkload("e", scan=0.95, insert=0.05),
}


def ycsb_delayed_columns() -> frozenset[tuple[str, str]]:
    """The delayed-update columns LTPG should manage for YCSB."""
    return frozenset({("usertable", "f0")})


def _register_procedures(
    registry: ProcedureRegistry, btree_scans: bool = False
) -> None:
    @registry.register("ycsb_txn")
    def ycsb_txn(ctx, *flat_ops):
        """One YCSB transaction: a flat (op_code, key) sequence.

        op codes: 0 = read f1, 1 = commutative update (+1 on f0),
        2 = insert, 3 = scan f1 over SCAN_LENGTH keys,
        4 = non-commutative read-modify-write on f1 (ablation mode).
        """
        n = len(flat_ops) // 2
        for j in range(n):
            code = flat_ops[2 * j]
            key = flat_ops[2 * j + 1]
            if code == 0:
                ctx.read("usertable", key, "f1")
            elif code == 1:
                ctx.add("usertable", key, "f0", 1)
            elif code == 2:
                ctx.insert("usertable", key, {"f0": 0, "f1": key})
            elif code == 4:
                value = ctx.read("usertable", key, "f1")
                ctx.write("usertable", key, "f1", value + 1)
            elif btree_scans:
                # Range-query extension: one ordered-index search (priced
                # at a B+-tree's height) and a contiguous scan, with
                # phantom protection.
                ctx.range_read("usertable", key, key + SCAN_LENGTH - 1, "f1")
            else:
                for offset in range(SCAN_LENGTH):
                    ctx.read("usertable", key + offset, "f1")

    registry.register_batched(
        "ycsb_txn", functools.partial(_ycsb_txn_b, btree_scans)
    )


def _ycsb_txn_b(btree_scans, bctx, params):
    """Vectorized twin: one emission pass per op position.

    Lanes whose op sequence needs a read-your-own-writes overlay —
    a later op reading a key this lane already wrote (code 4) or
    inserted — fall back to the scalar procedure; generated
    workloads make those collisions rare (fresh insert keys, f0/f1
    field separation keeps commutative updates out of the way).
    """
    xp = bctx.xp
    n_ops = params.lengths // 2
    max_ops = int(n_ops.max()) if bctx.n else 0
    if max_ops == 0:
        return
    codes = xp.stack([params.column(2 * j) for j in range(max_ops)], axis=1)
    keys = xp.stack([params.column(2 * j + 1) for j in range(max_ops)], axis=1)
    valid = xp.arange(max_ops, dtype=np.int64) < n_ops[:, None]

    hazard = xp.zeros(bctx.n, dtype=bool)
    for j in range(max_ops):
        vj = valid[:, j]
        kj = keys[:, j]
        wj = vj & (codes[:, j] == 4)  # wrote f1 at kj
        ij = vj & (codes[:, j] == 2)  # inserted kj
        if not (wj.any() or ij.any()):
            continue
        for j2 in range(max_ops):
            if j2 == j:
                continue
            v2 = valid[:, j2]
            c2 = codes[:, j2]
            k2 = keys[:, j2]
            eq = v2 & (k2 == kj)
            cover = (
                v2 & (c2 == 3) & (k2 <= kj) & (kj <= k2 + SCAN_LENGTH - 1)
            )
            reads_f1 = (eq & ((c2 == 0) | (c2 == 4))) | cover
            if j2 > j:
                hazard |= wj & reads_f1
            # any op touching a key this lane inserts (either
            # direction: earlier reads miss the snapshot, later
            # ones would need the buffered row)
            hazard |= ij & (reads_f1 | (eq & ((c2 == 1) | (c2 == 2))))
    bctx.fall_back(xp.flatnonzero(hazard))

    span = xp.arange(SCAN_LENGTH, dtype=np.int64)
    for j in range(max_ops):
        act = bctx.active_mask() & valid[:, j]
        cj = codes[:, j]
        kj = keys[:, j]
        lanes0 = xp.flatnonzero(act & (cj == 0))
        if lanes0.size:
            rows, found = bctx.rows_for_keys("usertable", lanes0, kj[lanes0])
            bctx.read_rows("usertable", lanes0[found], rows[found], "f1")
        lanes1 = xp.flatnonzero(act & (cj == 1))
        if lanes1.size:
            rows, found = bctx.rows_for_keys("usertable", lanes1, kj[lanes1])
            bctx.add("usertable", lanes1[found], rows[found], "f0", 1)
        lanes2 = xp.flatnonzero(act & (cj == 2))
        if lanes2.size:
            k = kj[lanes2]
            bctx.insert("usertable", lanes2, k, {"f0": 0, "f1": k})
        lanes4 = xp.flatnonzero(act & (cj == 4))
        if lanes4.size:
            rows, found = bctx.rows_for_keys("usertable", lanes4, kj[lanes4])
            ok, r = lanes4[found], rows[found]
            value = bctx.read_rows("usertable", ok, r, "f1")
            bctx.write("usertable", ok, r, "f1", value + 1)
        lanes3 = xp.flatnonzero(act & (cj == 3))
        if lanes3.size:
            # a scan whose keys do not all resolve falls back (generated
            # scans always resolve: starts are clamped below the initial
            # table size)
            lo = kj[lanes3]
            counts = np.full(lanes3.size, SCAN_LENGTH, dtype=np.int64)
            keep, rows = bctx.rows_for_flat_keys(
                "usertable", lanes3, counts, (lo[:, None] + span).reshape(-1)
            )
            sl = lanes3[keep]
            if sl.size:
                if btree_scans:
                    lo = lo[keep]
                    bctx.range_predicate(
                        "usertable", sl, lo, lo + SCAN_LENGTH - 1
                    )
                bctx.read_rows(
                    "usertable", xp.repeat(sl, SCAN_LENGTH), rows, "f1"
                )


class YcsbGenerator:
    """Produces batches for one YCSB core workload."""

    def __init__(
        self,
        num_records: int,
        workload: str | YcsbWorkload = "a",
        zipf_alpha: float = DEFAULT_ZIPF_ALPHA,
        seed: int = 7,
        commutative_updates: bool = True,
    ):
        if num_records <= SCAN_LENGTH:
            raise WorkloadError("need more records than the scan length")
        if isinstance(workload, str):
            try:
                workload = WORKLOADS[workload.lower()]
            except KeyError:
                raise WorkloadError(f"unknown YCSB workload {workload!r}") from None
        self.workload = workload
        self.num_records = num_records
        self.zipf = ZipfGenerator(num_records, zipf_alpha)
        self.commutative_updates = commutative_updates
        self._rng = np.random.default_rng(seed)
        self._next_insert_key = num_records

    def make_batch(self, size: int) -> list[Transaction]:
        """Generate ``size`` transactions of OPS_PER_TXN operations."""
        rng = self._rng
        wl = self.workload
        # Read-latest targets keys that existed when the batch formed;
        # keys inserted *within* the batch are invisible to its
        # snapshot reads and would only produce pointless misses.
        latest_limit = self._next_insert_key
        thresholds = np.cumsum([wl.read, wl.update, wl.insert, wl.scan])
        total_ops = size * OPS_PER_TXN
        codes = np.minimum(
            np.searchsorted(thresholds, rng.random(total_ops), side="right"), 3
        )
        ranks = self.zipf.sample(rng, total_ops)
        # One key per op, by op kind; position in the flat op stream is
        # (transaction, slot) in row-major order.
        keys = ranks.copy()
        inserts = np.flatnonzero(codes == 2)  # fresh unique keys, in op order
        keys[inserts] = self._next_insert_key + np.arange(
            inserts.size, dtype=np.int64
        )
        self._next_insert_key += int(inserts.size)
        scans = codes == 3  # clamp the range start
        keys[scans] = np.minimum(ranks[scans], self.num_records - SCAN_LENGTH)
        if wl.read_latest:
            # Read-latest: popular keys are the newest ones.
            reads = codes == 0
            keys[reads] = np.maximum(latest_limit - 1 - ranks[reads], 0)
        if not self.commutative_updates:
            # Ablation mode: plain read-modify-write on the read field,
            # exposing full Zipfian write contention.
            codes = np.where(codes == 1, 4, codes)
        flat = np.empty((size, 2 * OPS_PER_TXN), dtype=np.int64)
        flat[:, 0::2] = codes.reshape(size, OPS_PER_TXN)
        flat[:, 1::2] = keys.reshape(size, OPS_PER_TXN)
        return [Transaction("ycsb_txn", tuple(row)) for row in flat.tolist()]


def build_ycsb(
    num_records: int,
    workload: str | YcsbWorkload = "a",
    zipf_alpha: float = DEFAULT_ZIPF_ALPHA,
    seed: int = 7,
    commutative_updates: bool = True,
    btree_scans: bool = False,
) -> tuple[Database, ProcedureRegistry, YcsbGenerator]:
    """Load a YCSB instance and return (database, registry, generator).

    ``btree_scans=True`` enables the range-query extension: workload E's
    scans run through a B-tree ordered index with phantom protection
    instead of the paper's pre-resolved-key emulation.
    """
    db = Database("ycsb")
    table = db.create_table(USERTABLE, capacity=max(1024, num_records))
    keys = np.arange(num_records, dtype=np.int64)
    rng = np.random.default_rng(seed)
    table.bulk_load(
        keys,
        {"f0": np.zeros(num_records, dtype=np.int64), "f1": keys,
         "f2": rng.integers(0, 1000, num_records)},
    )
    if btree_scans:
        table.add_ordered_index()
    registry = ProcedureRegistry()
    _register_procedures(registry, btree_scans=btree_scans)
    generator = YcsbGenerator(
        num_records,
        workload=workload,
        zipf_alpha=zipf_alpha,
        seed=seed,
        commutative_updates=commutative_updates,
    )
    return db, registry, generator
