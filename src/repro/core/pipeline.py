"""Batch-to-batch pipeline execution (paper §V-E).

With three CUDA streams, the transfer of batch *n+1*'s inputs overlaps
the kernels of batch *n*, and batch *n-1*'s results stream back
concurrently.  The engine already orders each batch's own work with
events (h2d -> kernels -> d2h); pointing the three legs at distinct
streams is all the pipeline needs — the simulator's per-stream clocks
produce the overlap, and aborted transactions must wait two batches
(their retry inputs cannot join the already-in-flight next batch).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.core.engine import LTPGEngine
from repro.core.stats import RunStats
from repro.txn.batch import BatchScheduler

#: Stream names used by the pipelined configuration.
H2D_STREAM = "h2d"
COMPUTE_STREAM = "compute"
D2H_STREAM = "d2h"


@contextlib.contextmanager
def pipelined(engine: LTPGEngine) -> Iterator[LTPGEngine]:
    """Temporarily run the engine with overlapped transfer streams."""
    saved = (engine.h2d_stream, engine.compute_stream, engine.d2h_stream)
    engine.h2d_stream = H2D_STREAM
    engine.compute_stream = COMPUTE_STREAM
    engine.d2h_stream = D2H_STREAM
    try:
        yield engine
    finally:
        engine.h2d_stream, engine.compute_stream, engine.d2h_stream = saved


def run_pipelined(
    engine: LTPGEngine,
    scheduler: BatchScheduler,
    max_batches: int | None = None,
) -> RunStats:
    """Drain ``scheduler`` with pipeline overlap enabled.

    The caller should build the scheduler with
    ``retry_delay_batches=config.effective_retry_delay`` (2 when
    pipelined) — see :class:`~repro.core.config.LTPGConfig`.
    """
    with pipelined(engine):
        return engine.process(scheduler, max_batches=max_batches)

