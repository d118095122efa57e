"""GPU sanitizer: shadow access logging with racecheck + memcheck.

Works like ``compute-sanitizer`` does for real CUDA, scaled down to the
SIMT simulator: instrumented code records every shared-memory access as
``(buffer, index, thread, kind, is_atomic)`` into the sanitizer bound to
the running :class:`~repro.gpusim.kernel.KernelContext`.  Kernel launch
boundaries are the synchronization points; within one kernel epoch the
sanitizer flags

* **write-write** — two plain writes to one address by different threads,
* **read-write** — a plain write racing a plain read by another thread,
* **atomic-plain** — atomic and plain access mixed on one address
  (unsynchronized atomics serialize in *some* order; a plain access
  interleaving with them is exactly the nondeterminism LTPG's
  deterministic tie-breaking exists to avoid),

while all-atomic contention on an address is clean (atomics serialize,
and the deterministic ascending-thread-id schedule fixes the order).

Memcheck runs inline on the same records and is a bounds check: each
buffer registered with a size reports out-of-bounds indices the moment
they happen, in program order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.analysis.findings import MEMCHECK, RACECHECK, Finding, FindingReport

#: Cap on findings emitted per (buffer, kind) pair; the rest are counted
#: as suppressed so a pathological kernel cannot flood the report.
FINDINGS_PER_BUCKET = 16


class AccessKind(enum.IntEnum):
    """What an instrumented access did to the address."""

    READ = 0
    WRITE = 1


@dataclass
class ShadowBuffer:
    """Shadow state for one tracked allocation.

    ``size=None`` models an unbounded address space (auto-registered
    buffers): no bounds check.
    """

    name: str
    size: int | None

    def grow(self, size: int) -> None:
        if self.size is not None and size > self.size:
            self.size = size


@dataclass
class _Record:
    """One batch of accesses (vectorized: many threads, one call)."""

    buf: int  # interned buffer id
    indices: np.ndarray
    threads: np.ndarray
    is_write: bool
    is_atomic: bool


class Sanitizer:
    """Shadow access log + racecheck/memcheck analyses.

    Bind to a :class:`~repro.gpusim.device.Device` (``device.sanitizer``)
    and every kernel launch opens a fresh epoch; the LTPG engine's phase
    kernels record into it (the conflict log's atomics through the
    kernel context, table and minima traffic through
    :class:`~repro.analysis.observer.SanitizeObserver`).  Standalone use
    works too: record accesses, then call :meth:`flush`.
    """

    def __init__(self, racecheck: bool = True, memcheck: bool = True):
        self.racecheck_enabled = racecheck
        self.memcheck_enabled = memcheck
        self.report = FindingReport()
        self._buffers: dict[str, ShadowBuffer] = {}
        self._buf_ids: dict[str, int] = {}
        self._buf_names: list[str] = []
        self._kernel = "<ambient>"
        #: Access records of the current synchronization interval.
        self._segment: list[_Record] = []
        self._bucket_counts: dict[tuple[str, str], int] = {}
        #: Totals for reporting (accesses observed, kernels scanned).
        self.accesses_logged = 0
        self.kernels_scanned = 0

    # -- buffer registry --------------------------------------------------
    def register_buffer(self, name: str, size: int | None = None) -> None:
        """Track ``name``; idempotent, growing the bound monotonically.

        A sized buffer is bounds-checked by memcheck.
        """
        existing = self._buffers.get(name)
        if existing is None:
            self._buffers[name] = ShadowBuffer(name, size)
            self._intern(name)
        elif size is not None:
            existing.grow(size)

    def _intern(self, name: str) -> int:
        buf_id = self._buf_ids.get(name)
        if buf_id is None:
            buf_id = len(self._buf_names)
            self._buf_ids[name] = buf_id
            self._buf_names.append(name)
        return buf_id

    def _shadow(self, name: str) -> ShadowBuffer:
        shadow = self._buffers.get(name)
        if shadow is None:
            # Auto-register: unbounded.  Explicit registration with a
            # size is what turns on bounds checking.
            shadow = ShadowBuffer(name, None)
            self._buffers[name] = shadow
            self._intern(name)
        return shadow

    # -- epoch lifecycle --------------------------------------------------
    def begin_kernel(self, name: str) -> None:
        """A kernel launch: a fresh epoch named after the kernel."""
        self._scan_segment()
        self._segment = []
        self._kernel = name

    def end_kernel(self) -> None:
        """Kernel completion is a device-wide synchronization point."""
        self._scan_segment()
        self._segment = []
        self._kernel = "<ambient>"
        self.kernels_scanned += 1

    def flush(self) -> None:
        """Analyze and clear any pending records (standalone use)."""
        self._scan_segment()
        self._segment = []

    # -- recording --------------------------------------------------------
    def record(
        self,
        buffer: str,
        indices: "np.ndarray | list[int] | int",
        threads: "np.ndarray | list[int] | int",
        kind: AccessKind,
        atomic: bool = False,
    ) -> None:
        """Log one batch of accesses: thread ``threads[i]`` touched
        ``buffer[indices[i]]``.  A scalar ``threads`` broadcasts."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if idx.size == 0:
            return
        thr = np.asarray(threads, dtype=np.int64)
        if thr.ndim == 0:
            thr = np.full(idx.size, int(thr), dtype=np.int64)
        if thr.size != idx.size:
            raise ValueError("sanitizer record: indices and threads must align")
        self.accesses_logged += idx.size
        shadow = self._shadow(buffer)
        if self.memcheck_enabled:
            idx, thr = self._memcheck(shadow, idx, thr, kind)
            if idx.size == 0:
                return
        if self.racecheck_enabled:
            self._segment.append(
                _Record(
                    buf=self._buf_ids[buffer],
                    indices=idx,
                    threads=thr,
                    is_write=kind == AccessKind.WRITE,
                    is_atomic=atomic,
                )
            )

    # -- memcheck (inline, program order) ---------------------------------
    def _memcheck(
        self,
        shadow: ShadowBuffer,
        idx: np.ndarray,
        thr: np.ndarray,
        kind: AccessKind,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Report OOB accesses; returns the in-bounds (indices, threads)
        pairs (OOB accesses never reach the race log — like real
        hardware, where they fault instead of landing anywhere
        meaningful)."""
        if shadow.size is None:
            return idx, thr
        oob = (idx < 0) | (idx >= shadow.size)
        if not oob.any():
            return idx, thr
        for j in np.flatnonzero(oob)[:FINDINGS_PER_BUCKET]:
            self._emit(
                Finding(
                    MEMCHECK,
                    "out-of-bounds",
                    shadow.name,
                    f"thread {int(thr[j])} {kind.name.lower()} at index "
                    f"{int(idx[j])}, buffer size {shadow.size}",
                    kernel=self._kernel,
                    index=int(idx[j]),
                    threads=(int(thr[j]), int(thr[j])),
                )
            )
        return idx[~oob], thr[~oob]

    # -- racecheck (per synchronization interval) -------------------------
    def _scan_segment(self) -> None:
        records = self._segment
        if not records or not self.racecheck_enabled:
            return
        buf = np.concatenate([np.full(r.indices.size, r.buf) for r in records])
        idx = np.concatenate([r.indices for r in records])
        thr = np.concatenate([r.threads for r in records])
        wrt = np.concatenate(
            [np.full(r.indices.size, r.is_write, dtype=bool) for r in records]
        )
        atm = np.concatenate(
            [np.full(r.indices.size, r.is_atomic, dtype=bool) for r in records]
        )
        order = np.lexsort((thr, idx, buf))
        buf, idx, thr, wrt, atm = (
            buf[order], idx[order], thr[order], wrt[order], atm[order]
        )
        new_group = np.empty(buf.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = (buf[1:] != buf[:-1]) | (idx[1:] != idx[:-1])
        starts = np.flatnonzero(new_group)
        ends = np.append(starts[1:], buf.size)
        # Vectorized prefilter: a group needs >= 2 accesses, >= 2 distinct
        # threads, at least one write, and not all-atomic to be suspicious.
        sizes = ends - starts
        multi = sizes > 1
        if not multi.any():
            return
        thread_changes = np.zeros(buf.size, dtype=np.int64)
        thread_changes[1:] = (thr[1:] != thr[:-1]) & ~new_group[1:]
        distinct = np.add.reduceat(thread_changes, starts) + 1
        any_write = np.add.reduceat(wrt.astype(np.int64), starts) > 0
        all_atomic = np.add.reduceat(atm.astype(np.int64), starts) == sizes
        suspicious = multi & (distinct > 1) & any_write & ~all_atomic
        for g in np.flatnonzero(suspicious):
            self._classify_group(
                buf[starts[g]],
                int(idx[starts[g]]),
                thr[starts[g] : ends[g]],
                wrt[starts[g] : ends[g]],
                atm[starts[g] : ends[g]],
            )

    def _classify_group(
        self,
        buf_id: int,
        index: int,
        thr: np.ndarray,
        wrt: np.ndarray,
        atm: np.ndarray,
    ) -> None:
        """Emit race findings for one conflicting (buffer, index)."""
        name = self._buf_names[int(buf_id)]
        plain = ~atm
        plain_w = np.unique(thr[plain & wrt])
        plain_r = np.unique(thr[plain & ~wrt])
        atomic_t = np.unique(thr[atm])
        if plain_w.size >= 2:
            self._emit_race(
                "write-write", name, index,
                (int(plain_w[0]), int(plain_w[1])),
                "unsynchronized writes",
            )
        if plain_w.size and plain_r.size:
            readers = plain_r[plain_r != plain_w[0]]
            if readers.size or plain_w.size > 1:
                writer = int(plain_w[0]) if readers.size else int(plain_w[1])
                reader = int(readers[0]) if readers.size else int(plain_r[0])
                self._emit_race(
                    "read-write", name, index, (writer, reader),
                    "plain read races a write",
                )
        if atomic_t.size and (plain_w.size or plain_r.size):
            plain_t = np.unique(thr[plain])
            others = plain_t[plain_t != atomic_t[0]]
            partner = (
                int(others[0]) if others.size
                else int(atomic_t[1]) if atomic_t.size > 1 else int(plain_t[0])
            )
            if others.size or atomic_t.size > 1:
                self._emit_race(
                    "atomic-plain", name, index, (int(atomic_t[0]), partner),
                    "atomic and plain access mixed on one address",
                )

    def _emit_race(
        self,
        kind: str,
        buffer: str,
        index: int,
        threads: tuple[int, int],
        what: str,
    ) -> None:
        self._emit(
            Finding(
                RACECHECK,
                kind,
                buffer,
                f"{what} at index {index} between threads "
                f"{threads[0]} and {threads[1]} with no sync point",
                kernel=self._kernel,
                index=index,
                threads=threads,
            )
        )

    def _emit(self, finding: Finding) -> None:
        bucket = (finding.subject, finding.kind)
        count = self._bucket_counts.get(bucket, 0)
        self._bucket_counts[bucket] = count + 1
        if count >= FINDINGS_PER_BUCKET:
            self.report.suppressed += 1
            return
        self.report.add(finding)

    # -- results ----------------------------------------------------------
    @property
    def findings(self) -> list[Finding]:
        return self.report.findings

    def findings_for(self, pass_name: str) -> list[Finding]:
        return self.report.by_pass(pass_name)

    @property
    def clean(self) -> bool:
        return self.report.clean
