"""LTPG engine configuration.

Every optimization the paper evaluates is an independent toggle so the
ablation benches (Fig 6(b), Table VI) can enable them one at a time:

* ``adaptive_warps``    — §V-B warp division by sub-transaction type.
* ``dynamic_buckets``   — §V-C large hash buckets for popular tables.
* ``logical_reordering``— §V-D Aria-style commit reordering.
* ``split_flags``       — §V-D row-level conflict-flag splitting.
* ``delayed_update``    — §V-D delayed commutative updates.
* ``pipelined``         — §V-E batch-to-batch pipeline (aborts retry +2).
* ``memory_mode``       — §V-E zero-copy vs. unified vs. auto.

``pipelined`` is the pipeline's only switch: the engine reads it once,
at construction, to put the h2d / compute / d2h legs on three streams
(one otherwise) and to fix ``LTPGEngine.retry_delay`` at
:attr:`LTPGConfig.effective_retry_delay`, the delay every driver's
aborts then retry after.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


class MemoryMode(enum.Enum):
    """Where the database snapshot lives during batch processing."""

    #: Resident in device global memory (fits comfortably).
    DEVICE = "device"
    #: Host-pinned zero-copy memory — fast exchange within GPU limits.
    ZERO_COPY = "zero_copy"
    #: CUDA unified memory — databases larger than device memory.
    UNIFIED = "unified"
    #: Pick per database size (the paper's selective adjustment).
    AUTO = "auto"


@dataclass(frozen=True)
class LTPGConfig:
    """Tunable knobs of the LTPG engine."""

    batch_size: int = 4096
    adaptive_warps: bool = True
    dynamic_buckets: bool = True
    logical_reordering: bool = True
    split_flags: bool = True
    delayed_update: bool = True
    pipelined: bool = False
    memory_mode: MemoryMode = MemoryMode.AUTO

    #: Attach the tracing + metrics subsystem (:mod:`repro.trace`): the
    #: engine records batch/phase/kernel spans over the simulated clock
    #: (exportable as Chrome trace_event JSON) and populates a
    #: counter/gauge/histogram registry with the contention signals the
    #: cost model computes.  Off by default: span bookkeeping costs host
    #: time the perf gate must not see.
    trace: bool = False

    #: Batched procedure execution (the host analog of §IV-C's warp
    #: division): group the batch by procedure name and run each group
    #: through its vectorized ``BatchProcedure`` twin over parameter
    #: columns; procedures lacking a twin, and lanes a twin sends to
    #: fallback, run one call per transaction inside the same pipeline —
    #: their ops land in the batch's ``OpFrame`` and their effects in the
    #: columnar locals like every other lane's.  ``False`` treats every
    #: procedure as twin-less: same pipeline, same outcomes, one
    #: procedure call per transaction.  Not a tuning knob (the twins win
    #: from a few dozen lanes up); it stays a field because the served
    #: benchmark's configs name it (ROADMAP items 1(a), 8(a)).
    batched_exec: bool = True

    #: Array backend the batched hot path runs on (:mod:`repro.xp`):
    #: ``"numpy"`` (the host, the pinned reference) or ``"mockgpu"`` (a
    #: device: NumPy semantics in memory of its own, plus the transfer
    #: ledger and implicit-sync / dtype-discipline enforcement).  A
    #: device backend keeps the snapshot resident
    #: (:mod:`repro.xp.residency`): tables upload once, write-back and
    #: delayed updates scatter device-side, host readers fence lazily,
    #: and a batch moves parameters down and read/write sets back —
    #: there is no flag for it.
    array_backend: str = "numpy"

    #: Columns managed by delayed updates: {(table, column), ...}.  These
    #: must be accessed only through ADD operations within a batch.
    delayed_columns: frozenset[tuple[str, str]] = frozenset()
    #: Columns that get their own conflict-flag group when split_flags is
    #: on: {(table, column), ...}.  Delayed columns are implicitly split.
    split_columns: frozenset[tuple[str, str]] = frozenset()
    #: Tables the developer pre-marks as popular (§V-C); others are
    #: detected at run time from the access-frequency rule E = T/D > 1.
    hot_tables: frozenset[str] = frozenset()

    #: The paper's *first* data-synchronization method: every N batches,
    #: transfer the whole device snapshot back to the CPU ("a
    #: user-defined interval for transferring data from the GPU to the
    #: CPU").  ``None`` selects the second method only (per-batch
    #: read/write-set shipping), which is the paper's preferred mode.
    full_sync_interval: int | None = None

    #: How many batches later an abort retries at least; pipelining
    #: raises it to 2 (:attr:`effective_retry_delay`).
    retry_delay_batches: int = 1

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError("batch size must be positive")
        if self.retry_delay_batches < 1:
            raise ConfigError("retry delay must be >= 1 batch")
        from repro.xp import BACKEND_NAMES  # noqa: PLC0415 (cycle: xp -> errors)

        if self.array_backend not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown array_backend {self.array_backend!r}; expected one "
                f"of {', '.join(BACKEND_NAMES)}"
            )

    @property
    def effective_retry_delay(self) -> int:
        """The engine's retry delay: pipelining forces aborts to wait an
        extra batch (§V-E), since the next batch is already in flight."""
        return max(self.retry_delay_batches, 2 if self.pipelined else 1)

    def all_split_columns(self) -> frozenset[tuple[str, str]]:
        """Split groups to create: explicit splits plus delayed columns
        (a delayed column must never share the default row flag)."""
        return self.split_columns | self.delayed_columns

    def without_optimizations(self) -> "LTPGConfig":
        """The unenhanced baseline configuration for ablations."""
        return replace(
            self,
            adaptive_warps=False,
            dynamic_buckets=False,
            logical_reordering=False,
            split_flags=False,
            delayed_update=False,
            pipelined=False,
        )
