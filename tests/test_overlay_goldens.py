"""What the overlays emit, pinned byte for byte.

The equivalence suites compare statuses, stats and digests; none of
them looks at what ``trace=True`` *records*.  These goldens do: the
Chrome trace JSON and the metrics snapshot of three fixed 256-lane
TPC-C batches, as sha256s recorded before the overlay moved out of the
engine (``repro.trace.observer``).  A change that reorders spans or
drops a counter fails here, per cell.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.workload import build_workload
from repro.txn import assign_tids

pytestmark = pytest.mark.trace

BATCHES = 3
LANES = 256

CELLS = {
    "default": {},
    # the device cell: a device backend is resident by definition (the
    # key keeps its name so the test ids do not move)
    "mockgpu-resident": dict(array_backend="mockgpu"),
}

#: cell -> (trace JSON, metrics snapshot).
GOLDEN = {
    "default": (
        "991d75bda3a819bcc3da66da576f019f229f4e85c49915ac04d0603b89c2beb9",
        "2ec6cbc0c089608b6734c0417e587bf13e12e307e0cd505be54d5de3d3a86c00",
    ),
}
# The device cell is the default cell plus the transfer ledger: with
# the per-batch ``transfers`` counter events out of the trace and the
# ``transfer.*`` counters out of the metrics, what is left must hash to
# the *default* cell's goldens (a device changes where the bytes live,
# nothing else the overlay says about a batch).
GOLDEN["mockgpu-resident"] = GOLDEN["default"]

#: The ledger itself, value by value, so a change that moves it shows
#: which counter moved and by how much.  History: scalar lanes reading
#: dirty cells off the device (``DeviceTableView.read_cell``) added 22
#: one-word readbacks — ``transfer.count`` 888 -> 910, D2H +176 B.
#: PR 21 (one sorted pass and one insert record per group; inserts
#: resolve their keys through ``Table.rows_of_keys``) moved four
#: counters, all in the execute phase —
#:
#:   transfer.count               910 ->       919
#:   transfer.d2h_bytes     2,255,950 -> 2,222,916   (execute: same -33,034)
#:   transfer.h2d_bytes     2,832,981 -> 2,870,677   (execute: same +37,696)
#:
#: and the per-batch (D2H, H2D) pairs from (748,490, 2,515,728),
#: (724,306, 155,009), (783,154, 162,244); docs/ARCHITECTURE.md §13
#: attributes every byte of that to a call site.  The op frame kept in
#: emission order (``finalize`` ships each group's lane column where it
#: shipped per-lane counts) moved execute's D2H alone —
#:
#:   transfer.d2h_bytes     2,222,916 -> 2,427,452   (execute: same +204,536)
#:
#: per batch 737,868 / 713,188 / 771,860 -> 805,868 / 778,508 / 843,076;
#: ``transfer.count`` and every H2D figure are unchanged (§13 again).
#: The NewOrder twin running every item slot in one pass (no per-slot
#: ``active_mask()`` upload, key probes or insert chunks) moved execute
#: alone once more —
#:
#:   transfer.count               919 ->       493
#:   transfer.d2h_bytes     2,427,452 -> 2,427,194   (execute: same -258)
#:   transfer.h2d_bytes     2,870,677 -> 2,865,202   (execute: same -5,475)
#:
#: per batch D2H -86 each, H2D -1,800 / -1,815 / -1,860 (§13 has the
#: call sites).  The batch's one key order — writes and adds resolved
#: once per batch on the host, off the op columns the groups already
#: shipped, and each registration call shipping one row per distinct
#: key instead of one per registration — moved execute alone again:
#:
#:   transfer.count               493 ->       289
#:   transfer.d2h_bytes     2,427,194 -> 1,906,158   (execute: same -521,036)
#:   transfer.h2d_bytes     2,865,202 -> 2,819,298   (execute: same -45,904)
#:
#: per batch (D2H, H2D) (805,782, 2,526,424), (778,422, 165,298),
#: (842,990, 173,480) -> (633,290, 2,511,208), (610,210, 150,130),
#: (662,658, 157,960); conflict and write-back are unchanged (§13).
#: A NewOrder group whose duplicate-item lanes fall back before they
#: emit anything no longer uploads its fallback mask to compress an op
#: block that holds none of their rows:
#:
#:   transfer.count               289 ->       286
#:   transfer.h2d_bytes     2,819,298 -> 2,818,933   (execute: same -365)
#:
#: per batch H2D -120 / -121 / -124 (one byte per NewOrder lane).
LEDGER = {
    "mockgpu-resident": {
        "transfer.count": 286,
        "transfer.d2h_bytes": 1_906_158,
        "transfer.h2d_bytes": 2_818_933,
        "transfer.execute.d2h_bytes": 1_762_214,
        "transfer.execute.h2d_bytes": 1_510_373,
        "transfer.conflict.d2h_bytes": 143_944,
        "transfer.conflict.h2d_bytes": 0,
        "transfer.writeback.d2h_bytes": 0,
        "transfer.writeback.h2d_bytes": 1_308_560,
        "per_batch": [
            {"d2h_bytes": 633_290, "h2d_bytes": 2_511_088},
            {"d2h_bytes": 610_210, "h2d_bytes": 150_009},
            {"d2h_bytes": 662_658, "h2d_bytes": 157_836},
        ],
    },
}


def _run(cell: str, **overlay):
    setup = build_workload("tpcc")
    engine = setup.engine(batch_size=LANES, **overlay, **CELLS[cell])
    return setup, engine


def _drive(setup, engine) -> None:
    next_tid = 0
    with engine:
        for _ in range(BATCHES):
            batch = setup.generator.make_batch(LANES)
            next_tid = assign_tids(batch, next_tid)
            engine.run_batch(batch)


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _trace_and_metrics(cell: str) -> tuple[dict, dict]:
    setup, engine = _run(cell, trace=True)
    _drive(setup, engine)
    snapshot = engine.metrics.snapshot()
    return engine.tracer.to_chrome(), snapshot


def _take_ledger(trace: dict, snapshot: dict) -> dict:
    """Remove the transfer ledger from ``trace`` and ``snapshot`` and
    return it, shaped like a :data:`LEDGER` entry."""
    counters = snapshot["counters"]
    ledger = {k: counters.pop(k) for k in sorted(counters) if k.startswith("transfer.")}
    events = trace["traceEvents"]
    ledger["per_batch"] = [e["args"] for e in events if e["name"] == "transfers"]
    trace["traceEvents"] = [e for e in events if e["name"] != "transfers"]
    return ledger


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_trace_and_metrics_match_their_goldens(cell):
    trace, metrics = _trace_and_metrics(cell)
    if cell in LEDGER:
        assert _take_ledger(trace, metrics) == LEDGER[cell]
    assert (_sha(trace), _sha(metrics)) == GOLDEN[cell]
