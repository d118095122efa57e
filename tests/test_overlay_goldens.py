"""What the overlays emit, pinned byte for byte.

The equivalence suites compare statuses, stats and digests; none of
them looks at what ``trace=True`` and ``sanitize=True`` *record*.  These
goldens do: the Chrome trace JSON, the metrics snapshot and the
sanitizer's shadow-access stream of three fixed 256-lane TPC-C batches,
as sha256s recorded before the overlays moved out of the engine
(``repro.trace.observer`` / ``repro.analysis.observer``) and sharding
moved into it.  A change that reorders spans, drops a counter or
records a different address set fails here, per cell.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.workload import build_workload
from repro.txn import assign_tids

pytestmark = pytest.mark.trace

BATCHES = 3
LANES = 256

CELLS = {
    "default": {},
    "shards2": dict(shards=2),
    # the device cell: a device backend is resident by definition (the
    # key keeps its name so the test ids do not move)
    "mockgpu-resident": dict(array_backend="mockgpu"),
}

#: cell -> (trace JSON, metrics snapshot, sanitizer stream); the device
#: backend rejects ``sanitize`` (the shadow log reads host arrays).
GOLDEN = {
    "default": (
        "991d75bda3a819bcc3da66da576f019f229f4e85c49915ac04d0603b89c2beb9",
        "2ec6cbc0c089608b6734c0417e587bf13e12e307e0cd505be54d5de3d3a86c00",
        "f70898e75c7409554a44eac033823a1774e5cafa058c2eaaf2f7cdae9a64a914",
    ),
    "shards2": (
        "51dc29d78fcc9504f3756b342e179628d3abc5155ee09c4feecca363fa4e9c44",
        "4785667dd3e8abf682b873a15db68ca33ff5b1de61b3d5657b5e655e1b87db7f",
        "13ebe27e0f07ad8246547259705d529cb1010761b78ef9186aa600f375411a9f",
    ),
    # re-recorded once, when scalar lanes began reading dirty cells off
    # the device (``DeviceTableView.read_cell``): the three batches make
    # 22 one-word readbacks, so ``transfer.count`` 888 -> 910 and
    # ``transfer.d2h_bytes`` / ``transfer.execute.d2h_bytes`` +176 B
    # (two span args carry the same bytes); nothing else moved
    "mockgpu-resident": (
        "7f929aadf65c5553556024beca1ab38b19ccac687b154dedcb98a4e9f3255315",
        "a0c925b6ce062008440f8e6492543151282d304271fe5c5ae9d18b42207e9060",
        None,
    ),
}


def _run(cell: str, **overlay):
    setup = build_workload("tpcc")
    engine = setup.engine(
        batch_size=LANES, **{"sanitize": False, **overlay, **CELLS[cell]}
    )
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


def _trace_and_metrics(cell: str) -> tuple[str, str]:
    setup, engine = _run(cell, trace=True)
    _drive(setup, engine)
    snapshot = engine.metrics.snapshot()
    # the one host-clock value in the registry
    snapshot["counters"].pop("sequencer.stall_ns", None)
    return _sha(engine.tracer.to_chrome()), _sha(snapshot)


def _sanitizer_stream(cell: str) -> str:
    """sha256 over every kernel epoch's shadow accesses: per epoch and
    (buffer, kind, atomic) the sorted (address, thread) pairs, so how a
    stage splits its records inside one epoch is not part of the pin."""
    setup, engine = _run(cell, sanitize=True)
    san = engine.sanitizer
    epochs: list[tuple[str, dict]] = []
    begin_kernel, record = san.begin_kernel, san.record

    def on_begin(name):
        epochs.append((name, {}))
        begin_kernel(name)

    def on_record(buffer, indices, threads, kind, atomic=False):
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        thr = np.broadcast_to(np.asarray(threads, dtype=np.int64), idx.shape)
        epochs[-1][1].setdefault((buffer, int(kind), bool(atomic)), []).append(
            np.stack((idx, thr))
        )
        record(buffer, indices, threads, kind, atomic)

    san.begin_kernel, san.record = on_begin, on_record
    _drive(setup, engine)
    assert san.clean
    h = hashlib.sha256()
    for name, groups in epochs:
        h.update(name.encode())
        for key in sorted(groups):
            pairs = np.concatenate(groups[key], axis=1)
            pairs = pairs[:, np.lexsort((pairs[1], pairs[0]))]
            h.update(repr(key).encode())
            h.update(np.ascontiguousarray(pairs).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_trace_and_metrics_match_their_goldens(cell):
    trace, metrics = _trace_and_metrics(cell)
    assert (trace, metrics) == GOLDEN[cell][:2]


@pytest.mark.parametrize(
    "cell", sorted(c for c in CELLS if GOLDEN[c][2] is not None)
)
def test_sanitizer_stream_matches_its_golden(cell):
    assert _sanitizer_stream(cell) == GOLDEN[cell][2]
