"""The conflict log: TID registration tables with dynamic hash buckets.

Functionally, the log stores — per data item ``(table, row, group)``
the batch accessed — the minimum TID that read the item and the minimum
TID that wrote it this batch (exactly the two fields the paper keeps
per bucket), as two batch-local columns per side: the distinct keys,
sorted — read off the runs of the collector's key order, GPUTx's
sort-by-key — and each key's minimum.  A query is a binary search; a
key nobody registered answers :data:`NO_TID`.  Nothing the log holds is
sized by the database.  The conflict-detection phase compares each
transaction's TID against those minima.

For *cost*, the log also models the physical hash tables: every
registration is an ``atomicMin`` on a bucket slot, and concurrent
atomics on the same slot serialize.  Standard buckets have one slot
(``s_u = 1``); popular tables (``E > 1``) get large buckets whose
``s_u`` sub-slots are picked by ``TID mod s_u``, cutting the longest
serialization chain by a factor of ``s_u`` (paper §V-C, Table VII).
The split between exact minima (correctness) and modeled slots (cost)
is deliberate: open addressing resolves distinct-key collisions, so
bucket geometry never changes *results*, only timing — and the modeled
tables are what :meth:`ConflictLog.memory_report` prices (Table VIII),
not the columns the host keeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.hotspot import TableHeat
from repro.core.split_flags import FlagGroups
from repro.errors import TransactionError
from repro.gpusim.atomics import collision_profile
from repro.gpusim.kernel import KernelContext
from repro.storage.database import Database
from repro.xp import HOST, ArrayBackend, get_backend, sorted_runs
from repro.xp.rows import run_starts

#: "No TID registered" sentinel; larger than any real TID.
NO_TID = np.iinfo(np.int64).max

#: A side or reservation column with nothing registered.
_NONE = np.empty(0, dtype=np.int64)

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
        #: backend the minima columns live on (registrations ship each
        #: side's distinct keys and minima down once; detection reads
        #: one minimum per queried key back up)
        self.xp = xp if xp is not None else get_backend("numpy")
        self._base = np.zeros(database.num_tables + 1, dtype=np.int64)
        self._rows = np.zeros(database.num_tables, dtype=np.int64)
        self._groups = np.array(
            [flags.num_groups(t) for t in range(database.num_tables)],
            dtype=np.int64,
        )
        self._heats: dict[int, TableHeat] = {}
        self._clear()

    # -- batch lifecycle -----------------------------------------------------
    def begin_batch(self, heats: dict[int, TableHeat]) -> None:
        """Size key space to current table sizes and adopt this batch's
        popularity verdicts (bucket sizes)."""
        self._heats = heats
        for t in range(self._db.num_tables):
            self._rows[t] = self._db.table_by_id(t).num_rows
        np.cumsum(self._rows * self._groups, out=self._base[1:])
        self._clear()

    def end_batch(self) -> None:
        """Drop this batch's registrations."""
        self._clear()

    def _clear(self) -> None:
        # Per side, the batch's distinct keys (sorted) and each one's
        # minimum TID.
        self._sides = {"read": (_NONE, _NONE), "write": (_NONE, _NONE)}
        # Insert reservations, sorted by (table, key): winner per pair.
        self._ins_tables = self._ins_keys = self._ins_tids = _NONE

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
        self._register("read", keys, tids, table_ids, ctx)

    def register_writes(
        self, keys: np.ndarray, tids: np.ndarray, table_ids: np.ndarray,
        ctx: KernelContext | None = None,
    ) -> None:
        self._register("write", keys, tids, table_ids, ctx)

    def _register(
        self,
        side: str,
        keys: np.ndarray,
        tids: np.ndarray,
        table_ids: np.ndarray,
        ctx: KernelContext | None,
    ) -> None:
        """Registrations arrive grouped by key (``keys`` ascending, as
        the collector's key order leaves them), so the side's columns
        are the key runs' heads and one ``minimum.reduceat`` over the
        runs — the per-registration atomicMin with no sort.  A second
        call on one side in a batch merges into the first."""
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
        # the execute phase's write-set shipping: each distinct key and
        # its minimum TID go down once per registration call (identity
        # on numpy)
        column = xp.from_host(keys[starts])
        minima = xp.from_host(np.minimum.reduceat(tids, starts))
        held, held_minima = self._sides[side]
        if held.size:
            column = xp.concatenate((held, column))
            minima = xp.concatenate((held_minima, minima))
            order = xp.argsort(column)
            column, minima = column[order], minima[order]
            runs = run_starts(column, xp=xp)
            column, minima = column[runs], np.minimum.reduceat(minima, runs)
        self._sides[side] = column, minima
        if ctx is not None:
            ctx.add_trace_arg(f"conflict_log.{side}.registrations", int(keys.size))
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
    # The searches run on the device; the minima they find (one word per
    # queried key, not the whole table) come back explicitly — this is
    # the conflict-flag readback the paper's per-batch sync method ships.
    def min_read(self, keys: np.ndarray) -> np.ndarray:
        return self.xp.to_host(_lookup(self.xp, *self._sides["read"], keys))

    def min_write(self, keys: np.ndarray) -> np.ndarray:
        return self.xp.to_host(_lookup(self.xp, *self._sides["write"], keys))

    def insert_winners(
        self, table_ids: np.ndarray, insert_keys: np.ndarray
    ) -> np.ndarray:
        """Winning TID per queried (table, key) pair — a lookup in the
        table's segment of the reservations built at registration."""
        out = np.full(table_ids.size, NO_TID, dtype=np.int64)
        for table_id in np.unique(table_ids):
            lo, hi = np.searchsorted(self._ins_tables, [table_id, table_id + 1])
            mask = table_ids == table_id
            out[mask] = _lookup(
                HOST, self._ins_keys[lo:hi], self._ins_tids[lo:hi], insert_keys[mask]
            )
        return out

    # -- per-batch observability (repro.trace) --------------------------------
    def batch_metrics(self) -> dict[str, float]:
        """This batch's hash-table pressure, read *before*
        :meth:`end_batch` drops the registrations.

        ``load_factor`` is distinct registered keys over the key space —
        the quantity whose growth drives the dynamic-bucket rule;
        ``expanded_slots`` counts the extra sub-slots the large buckets
        of popular tables allocated (0 when every ``s_u`` is 1).
        """
        capacity = int(self._base[-1])
        # the host shipped these keys down itself: counting them is
        # bookkeeping, not a readback
        reads, writes = (np.asarray(keys) for keys, _ in self._sides.values())
        touched = int(np.union1d(reads, writes).size)
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


def _lookup(xp: ArrayBackend, column, minima, queries: np.ndarray):
    """Each query's entry of ``minima`` where sorted, distinct
    ``column`` holds it, :data:`NO_TID` where it does not — on ``xp``,
    where the two columns live."""
    if column.size == 0:
        return xp.full(queries.size, NO_TID, dtype=np.int64)
    at = xp.minimum(xp.searchsorted(column, queries), column.size - 1)
    return xp.where(column[at] == queries, minima[at], NO_TID)
