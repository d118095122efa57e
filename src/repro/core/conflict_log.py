"""The conflict log: TID registration tables with dynamic hash buckets.

Functionally, the log stores — per data item ``(table, row, group)`` —
the minimum TID that read the item and the minimum TID that wrote it
this batch (exactly the two fields the paper keeps per bucket).  The
conflict-detection phase compares each transaction's TID against those
minima.

For *cost*, the log also models the physical hash tables: every
registration is an ``atomicMin`` on a bucket slot, and concurrent
atomics on the same slot serialize.  Standard buckets have one slot
(``s_u = 1``); popular tables (``E > 1``) get large buckets whose
``s_u`` sub-slots are picked by ``TID mod s_u``, cutting the longest
serialization chain by a factor of ``s_u`` (paper §V-C, Table VII).
The split between exact minima (correctness) and modeled slots (cost)
is deliberate: open addressing resolves distinct-key collisions, so
bucket geometry never changes *results*, only timing.
"""

from __future__ import annotations

import numpy as np

from repro.core.hotspot import TableHeat
from repro.core.split_flags import FlagGroups
from repro.errors import TransactionError
from repro.gpusim.atomics import collision_profile
from repro.gpusim.kernel import KernelContext
from repro.storage.database import Database
from repro.xp import ArrayBackend, get_backend, sorted_runs
from repro.xp.rows import run_starts

#: "No TID registered" sentinel; larger than any real TID.
NO_TID = np.iinfo(np.int64).max

#: Bytes per bucket slot: min-read TID + min-write TID (paper keeps both).
_SLOT_BYTES = 8


class ConflictLog:
    """Per-batch TID registration over one database."""

    def __init__(
        self,
        database: Database,
        flags: FlagGroups,
        dynamic_buckets: bool = True,
        xp: ArrayBackend | None = None,
    ):
        self._db = database
        self._flags = flags
        self.dynamic_buckets = dynamic_buckets
        #: backend owning the minima arrays (the registration tables
        #: live device-resident; registrations ship keys/TIDs down and
        #: the detection phase reads the gathered minima back up)
        self.xp = xp if xp is not None else get_backend("numpy")
        self._min_read = np.empty(0, dtype=np.int64)
        self._min_write = np.empty(0, dtype=np.int64)
        self._base = np.zeros(database.num_tables + 1, dtype=np.int64)
        self._rows = np.zeros(database.num_tables, dtype=np.int64)
        self._groups = np.array(
            [flags.num_groups(t) for t in range(database.num_tables)],
            dtype=np.int64,
        )
        self._touched: list[np.ndarray] = []
        # Insert reservations, sorted by (table, key): winner per pair.
        self._ins_tables = np.empty(0, dtype=np.int64)
        self._ins_keys = np.empty(0, dtype=np.int64)
        self._ins_tids = np.empty(0, dtype=np.int64)
        self._heats: dict[int, TableHeat] = {}

    # -- batch lifecycle -----------------------------------------------------
    def begin_batch(self, heats: dict[int, TableHeat]) -> None:
        """Size key space to current table sizes and adopt this batch's
        popularity verdicts (bucket sizes)."""
        self._heats = heats
        for t in range(self._db.num_tables):
            self._rows[t] = self._db.table_by_id(t).num_rows
        np.cumsum(self._rows * self._groups, out=self._base[1:])
        total = int(self._base[-1])
        if total > self._min_read.size:
            # Grow with slack: tables gain rows every batch (inserts), so
            # sizing exactly would reallocate the minima arrays per batch.
            capacity = max(total + total // 4, 1024)
            self._min_read = self.xp.full(capacity, NO_TID, dtype=np.int64)
            self._min_write = self.xp.full(capacity, NO_TID, dtype=np.int64)
        self._touched = []
        self._clear_inserts()

    def end_batch(self) -> None:
        """Reset every touched minimum back to the sentinel."""
        if self._touched:
            keys = np.concatenate(self._touched)
            self._min_read[keys] = NO_TID
            self._min_write[keys] = NO_TID
        self._touched = []
        self._clear_inserts()

    def _clear_inserts(self) -> None:
        self._ins_tables = np.empty(0, dtype=np.int64)
        self._ins_keys = np.empty(0, dtype=np.int64)
        self._ins_tids = np.empty(0, dtype=np.int64)

    # -- key encoding -----------------------------------------------------------
    def encode(self, table_ids: np.ndarray, rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """Global conflict key for (table, row, group) triples."""
        return self._base[table_ids] + rows * self._groups[table_ids] + groups

    def bucket_size(self, table_id: int) -> int:
        """This batch's ``s_u`` for a table (1 when buckets are static)."""
        if not self.dynamic_buckets:
            return 1
        heat = self._heats.get(table_id)
        return heat.bucket_size if heat else 1

    # -- registration (the execution-phase atomics) ------------------------------
    def register_reads(
        self, keys: np.ndarray, tids: np.ndarray, table_ids: np.ndarray,
        ctx: KernelContext | None = None,
    ) -> None:
        self._register(self._min_read, keys, tids, table_ids, ctx, "conflict_log.read")

    def register_writes(
        self, keys: np.ndarray, tids: np.ndarray, table_ids: np.ndarray,
        ctx: KernelContext | None = None,
    ) -> None:
        self._register(
            self._min_write, keys, tids, table_ids, ctx, "conflict_log.write"
        )

    def _register(
        self,
        minima: np.ndarray,
        keys: np.ndarray,
        tids: np.ndarray,
        table_ids: np.ndarray,
        ctx: KernelContext | None,
        buffer: str,
    ) -> None:
        """Registrations arrive grouped by key (``keys`` ascending, as
        the collector's key order leaves them), so each key's minimum
        TID is one ``minimum.reduceat`` over its run — the
        per-registration atomicMin and the dedup for the touched list
        with no sort."""
        if keys.size == 0:
            return
        if keys.size != tids.size or keys.size != table_ids.size:
            raise TransactionError("registration arrays must align")
        # sorted keys make the bounds check two reads
        if keys[0] < 0 or keys[-1] >= self._base[-1] or (keys[1:] < keys[:-1]).any():
            raise TransactionError(
                "registrations must arrive grouped by key, ascending "
                "within the batch's key space"
            )
        xp = self.xp
        starts = run_starts(keys)
        touched = keys[starts]
        # the execute phase's write-set shipping: each distinct key and
        # its minimum TID go down once per registration call (identity
        # on numpy)
        dkeys = xp.from_host(touched)
        minima[dkeys] = xp.minimum(
            minima[dkeys], xp.from_host(np.minimum.reduceat(tids, starts))
        )
        self._touched.append(touched)
        if ctx is not None:
            ctx.add_trace_arg(f"{buffer}.registrations", int(keys.size))
            ctx.record_atomics(*self._collisions(tids, table_ids, starts))

    def register_inserts(
        self,
        table_ids: np.ndarray,
        insert_keys: np.ndarray,
        tids: np.ndarray,
        ctx: KernelContext | None = None,
    ) -> None:
        """Reserve the batch's inserted primary keys, once per batch
        (between :meth:`begin_batch` and :meth:`end_batch`, which both
        clear the reservations): the smallest TID wins each key, and
        losers will see a WAW at detection time."""
        if insert_keys.size == 0:
            return
        order, starts = sorted_runs(table_ids, insert_keys)
        first = order[starts]
        self._ins_tables, self._ins_keys = table_ids[first], insert_keys[first]
        self._ins_tids = np.minimum.reduceat(tids[order], starts)
        if ctx is not None:
            # Insert reservations hash the new key into a per-table
            # insert region sized for the batch (the engine grows the
            # insert hash with the batch, so distinct keys rarely
            # collide; same-key reservations still chain).
            hash_size = max(1024, 2 * int(insert_keys.size))
            slots = (table_ids << 32) | (insert_keys % hash_size)
            total, serialized, chain = collision_profile(slots)
            ctx.record_atomics(total, serialized, chain)

    def _collisions(
        self, tids: np.ndarray, table_ids: np.ndarray, starts: np.ndarray
    ) -> tuple[int, int, int]:
        """``collision_profile`` of the registrations' bucket-slot
        addresses, read off their key runs (``starts``).

        Standard tables: one slot per key, so a key's chain is its run.
        Popular tables: ``s_u`` sub-slots per key, chosen by ``TID mod
        s_u`` (the paper's re-hash), which shortens per-address chains
        by ``s_u`` — one ``bincount`` over (popular key run, sub-slot).
        """
        total = int(tids.size)
        lengths = np.diff(starts, append=total)
        sizes = np.array(
            [self.bucket_size(t) for t in range(self._db.num_tables)],
            dtype=np.int64,
        )
        s_u = sizes[table_ids[starts]]
        wide = s_u > 1
        chains = lengths
        if wide.any():
            smax = int(s_u.max())
            in_wide = np.repeat(wide, lengths)
            slot = np.repeat((np.cumsum(wide) - 1) * smax, lengths)[in_wide]
            slot += tids[in_wide] % np.repeat(s_u, lengths)[in_wide]
            per_slot = np.bincount(slot)
            chains = np.concatenate((lengths[~wide], per_slot[per_slot > 0]))
        return total, total - int(chains.size), int(chains.max())

    # -- detection-phase queries ------------------------------------------------
    # The gathers run on the device; the gathered minima (one word per
    # queried key, not the whole table) come back explicitly — this is
    # the conflict-flag readback the paper's per-batch sync method ships.
    def min_read(self, keys: np.ndarray) -> np.ndarray:
        return self.xp.to_host(self._min_read[keys])

    def min_write(self, keys: np.ndarray) -> np.ndarray:
        return self.xp.to_host(self._min_write[keys])

    def insert_winners(
        self, table_ids: np.ndarray, insert_keys: np.ndarray
    ) -> np.ndarray:
        """Winning TID per queried (table, key) pair — a sorted-array
        lookup over the reservation arrays built at registration."""
        out = np.full(table_ids.size, NO_TID, dtype=np.int64)
        if self._ins_keys.size == 0 or table_ids.size == 0:
            return out
        for table_id in np.unique(table_ids):
            lo = int(np.searchsorted(self._ins_tables, table_id, side="left"))
            hi = int(np.searchsorted(self._ins_tables, table_id, side="right"))
            if lo == hi:
                continue
            mask = table_ids == table_id
            seg = self._ins_keys[lo:hi]
            pos = np.searchsorted(seg, insert_keys[mask])
            in_seg = pos < seg.size
            safe = np.minimum(pos, seg.size - 1)
            hit = in_seg & (seg[safe] == insert_keys[mask])
            out[mask] = np.where(hit, self._ins_tids[lo:hi][safe], NO_TID)
        return out

    # -- per-batch observability (repro.trace) --------------------------------
    def batch_metrics(self) -> dict[str, float]:
        """This batch's hash-table pressure, read *before*
        :meth:`end_batch` wipes the touched set.

        ``load_factor`` is distinct registered keys over the key space —
        the quantity whose growth drives the dynamic-bucket rule;
        ``expanded_slots`` counts the extra sub-slots the large buckets
        of popular tables allocated (0 when every ``s_u`` is 1).
        """
        capacity = int(self._base[-1])
        if self._touched:
            touched = int(np.unique(np.concatenate(self._touched)).size)
        else:
            touched = 0
        expanded_tables = 0
        expanded_slots = 0
        for t in range(self._db.num_tables):
            s_u = self.bucket_size(t)
            if s_u > 1:
                expanded_tables += 1
                expanded_slots += int(self._rows[t] * self._groups[t]) * (s_u - 1)
        return {
            "capacity": capacity,
            "touched_keys": touched,
            "load_factor": touched / capacity if capacity else 0.0,
            "expanded_tables": expanded_tables,
            "expanded_slots": expanded_slots,
        }

    # -- memory accounting (Table VIII) --------------------------------------
    def memory_report(self) -> tuple[int, int]:
        """(standard_bytes, large_bytes) of this batch's hash tables.

        Every table keeps a standard-sized region of one slot per key;
        popular tables additionally allocate ``s_u`` slots per key.
        """
        standard = 0
        large = 0
        for t in range(self._db.num_tables):
            keys = int(self._rows[t] * self._groups[t])
            s_u = self.bucket_size(t)
            if s_u > 1:
                large += keys * s_u * _SLOT_BYTES
            else:
                standard += keys * _SLOT_BYTES
        return standard, large
