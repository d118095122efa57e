"""Device residency: on a device backend the snapshot's authoritative
copy lives device-side.

This is what ``is_device`` means to the engine, not a mode beside it:
an engine built on a device backend owns one :class:`ResidencyManager`,
an engine on the host (numpy) owns none and every column access is the
table column itself.  Each table's columns are uploaded to the backend
**once** and stay authoritative across batches.  Write-back and delayed
updates are device-side scatters into the cached columns (no round
trip), and the steady-state per-batch H2D is parameters plus
op-proportional shuttle traffic — independent of the database's size.

Coherence protocol (the dirty-epoch fence):

* :meth:`DeviceTableView.column` lazily uploads a column on first use
  and revalidates the cached host-array *identity* on every access —
  a table ``_grow`` swaps the host array out from under the cache, and
  the view heals and re-uploads.
* Device-side scatters call :meth:`DeviceTableView.mark_dirty`; while
  a column is dirty the host copy is stale.
* Host readers (``Table.read``/``column``/``state_signature``/``copy``
  — validation, recovery, tests) trigger a **lazy fence**
  through the ``Table._resident_view`` hook: the dirty column ships
  down once (D2H) and the dirty bit clears.  A reader that bypasses
  the hook (``t._columns[...]``) sees the stale host value, so the
  mockgpu conformance cells catch it as a digest mismatch.
* A scalar-executed lane (a ``fall_back`` lane, a twin-less procedure)
  reads point cells through ``BufferedContext.read``, inside the
  execute kernel and once per op: it takes the one cell off the device
  (:meth:`DeviceTableView.read_cell`, an explicit one-word D2H) rather
  than fence a column that is tens of megabytes and dirty every batch.
* Host writers (``Table.write``/``insert``/``bulk_load``) fence first,
  apply on host, then drop the device copy (lazy re-upload).
* ``Table._grow`` fences *before* reallocating, so the copy always
  takes a current prefix; the grown column re-uploads lazily
  (amortized-logarithmic thanks to capacity doubling).
* Freshly appended rows (the insert install path) are mirrored
  device-side by :meth:`DeviceTableView.note_appended` as op-sized
  scatters, so inserts do not invalidate the resident column.

Determinism: write-back scatters are WAW-disjoint per (row, group) by
the commit rule and delayed adds are commutative, so applying them on
the device copy instead of the host copy cannot reorder visible state
— the same argument that makes the columnar write-back byte-identical
to the scalar one (ARCHITECTURE §13 spells it out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MISSING = object()


@dataclass
class ResidencyStats:
    """Counters for the residency cache (tests assert steady state)."""

    #: full-column uploads (first touch, post-grow, post-host-write)
    uploads: int = 0
    upload_bytes: int = 0
    #: dirty columns fenced back to host (lazy stale-host-read syncs)
    fences: int = 0
    fence_bytes: int = 0
    #: freshly appended cells mirrored device-side (insert installs)
    append_cells: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "uploads": self.uploads,
            "upload_bytes": self.upload_bytes,
            "fences": self.fences,
            "fence_bytes": self.fence_bytes,
            "append_cells": self.append_cells,
        }


class DeviceTableView:
    """The device-resident columns of one table.

    Column keys are column names, plus ``None`` for the key array.
    The view is installed as ``table._resident_view`` so the table's
    host accessors can fence lazily without storage importing xp.
    """

    def __init__(self, table, xp, stats: ResidencyStats) -> None:
        self.table = table
        self.xp = xp
        self.stats = stats
        self._cols: dict[str | None, object] = {}
        self._hosts: dict[str | None, np.ndarray] = {}
        self._dirty: set[str | None] = set()
        #: bumped on every device-side scatter (observability/tests)
        self.device_epoch = 0

    # -- host-array plumbing ------------------------------------------------
    def _host_of(self, name: str | None) -> np.ndarray:
        t = self.table
        return t._keys if name is None else t._columns[name]

    def _drop(self, name: str | None) -> None:
        self._cols.pop(name, None)
        self._hosts.pop(name, None)
        self._dirty.discard(name)

    def _heal(self, name: str | None, host: np.ndarray) -> None:
        """The cached host array was swapped out (``np.resize`` grow).
        ``_grow`` fences before reallocating, so the new array's prefix
        already agrees with the device copy; healing writes the device
        prefix over it (a value-preserving no-op in that flow, a
        correction in any other identity swap) and drops the stale
        device copy."""
        if name in self._dirty:
            data = self.xp.to_host(self._cols[name])
            m = min(data.shape[0], host.shape[0])
            host[:m] = data[:m]
            self.stats.fences += 1
            self.stats.fence_bytes += int(data.nbytes)
        self._drop(name)

    # -- the cache ----------------------------------------------------------
    def column(self, name: str | None):
        """The device-resident array for ``name`` (``None`` = keys),
        uploading on first touch and revalidating host identity."""
        host = self._host_of(name)
        dev = self._cols.get(name, _MISSING)
        if dev is not _MISSING:
            if self._hosts[name] is host:
                return dev
            self._heal(name, host)
        dev = self.xp.from_host(host)
        self._cols[name] = dev
        self._hosts[name] = host
        self.stats.uploads += 1
        self.stats.upload_bytes += int(host.nbytes)
        return dev

    def mark_dirty(self, name: str | None) -> None:
        """A device-side scatter landed in ``name``: host copy stale."""
        self._dirty.add(name)
        self.device_epoch += 1

    # -- the fence (host readers) -------------------------------------------
    def fence_column(self, name: str | None) -> None:
        """Lazy stale-host-read sync: if ``name`` is dirty, ship the
        device copy down and clear the dirty bit."""
        if name not in self._dirty:
            return
        host = self._host_of(name)
        if self._hosts[name] is not host:
            self._heal(name, host)
            return
        data = self.xp.to_host(self._cols[name])
        host[:] = data
        self._dirty.discard(name)
        self.stats.fences += 1
        self.stats.fence_bytes += int(data.nbytes)

    def fence(self) -> None:
        """Fence every dirty column (full host sync)."""
        for name in list(self._dirty):
            self.fence_column(name)

    def read_cell(self, name: str, row: int) -> int:
        """One cell of the snapshot without a fence: off the device (a
        one-word D2H — an explicit crossing, legal inside a kernel
        phase) while ``name`` is dirty, off the host otherwise."""
        if name in self._dirty:
            return self.xp.item(self._cols[name][row : row + 1])
        return int(self._host_of(name)[row])

    # -- host writers -------------------------------------------------------
    def host_written(self, name: str | None) -> None:
        """Host memory took a direct write to ``name`` (after a fence):
        the device copy is now the stale side — drop it."""
        self._drop(name)

    def host_written_all(self) -> None:
        for name in list(self._cols):
            self._drop(name)

    # -- insert installs ----------------------------------------------------
    def note_appended(self, rows: np.ndarray) -> None:
        """Mirror freshly installed host rows into the cached device
        columns (op-sized scatters, not a re-upload).  Appended slots
        were zero on both sides before the install, so only scattering
        the new values is needed; the dirty set is untouched because
        host and device now agree on these cells."""
        if not self._cols:
            return
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        xp = self.xp
        idx = None
        for name in list(self._cols):
            host = self._host_of(name)
            if self._hosts[name] is not host:
                # grew mid-install; _grow fenced first, re-upload lazily
                self._heal(name, host)
                continue
            if idx is None:
                idx = xp.from_host(rows)
            xp.scatter(self._cols[name], idx, xp.from_host(host[rows]))
            self.stats.append_cells += int(rows.size)

    # -- teardown -----------------------------------------------------------
    def detach(self) -> None:
        """Fence, drop device copies, and unhook from the table."""
        self.fence()
        self._cols.clear()
        self._hosts.clear()
        if getattr(self.table, "_resident_view", None) is self:
            self.table._resident_view = None


class ResidencyManager:
    """Per-engine registry of :class:`DeviceTableView`\\ s, one per
    table, on the engine's device backend ``xp``."""

    def __init__(self, xp, database) -> None:
        self.xp = xp
        self.database = database
        self.stats = ResidencyStats()
        self._views: dict[int, DeviceTableView] = {}

    def view(self, table) -> DeviceTableView:
        """The table's view, creating and hooking it on first use."""
        v = self._views.get(id(table))
        if v is None:
            v = DeviceTableView(table, self.xp, self.stats)
            self._views[id(table)] = v
            table._resident_view = v
        return v

    def device_column(self, table, name: str | None):
        """The resident device array for ``(table, name)``."""
        return self.view(table).column(name)

    def mark_dirty(self, table, name: str | None) -> None:
        v = self._views.get(id(table))
        if v is not None:
            v.mark_dirty(name)

    def note_appended(self, table, rows: np.ndarray) -> None:
        v = self._views.get(id(table))
        if v is not None:
            v.note_appended(rows)

    def sync_all_to_host(self) -> None:
        """Fence every dirty column (full host sync; device copies are
        kept and stay valid)."""
        for v in self._views.values():
            v.fence()

    def detach(self) -> None:
        """Fence everything, drop the device copies and unhook all
        views (``LTPGEngine.close``); the next access re-uploads."""
        for v in self._views.values():
            v.detach()
        self._views.clear()


__all__ = ["DeviceTableView", "ResidencyManager", "ResidencyStats"]
