"""Cross-backend byte-identity for the batched executor.

The whole point of the ``repro.xp`` shim is that swapping the array
backend changes *where* the batched twins compute and nothing else.
These tests run identical batch specs through ``array_backend="numpy"``
(the pinned reference) and ``array_backend="mockgpu"`` (the device
contract checker) and compare the full observable surface byte for
byte — statuses, abort reasons, per-transaction op streams, simulated
phase times, and the final database digest — on TPC-C (full procedure
mix), YCSB (delayed deltas, B-tree scans) and SmallBank, at the paper's
small (2^10) and headline (2^14) batch sizes.

Riding along, because they are cheapest to assert right here:

* the mockgpu device contract — zero implicit host round-trips inside
  the execute/conflict/writeback kernel phases, zero float upcasts
  (the mechanical dtype-discipline audit);
* the numpy backend's zero-transfer contract;
* ``LTPGConfig.array_backend`` validation (unknown names, ``auto``
  among them);
* the ``transfer.*`` metrics surfaced through the observability stack.
"""

from __future__ import annotations

import pytest

from reference_engine import ReferenceEngine
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import ConfigError
from repro.txn import Transaction
from repro.workloads.smallbank import build_smallbank
from repro.workloads.tpcc import DELAYED_COLUMNS, SPLIT_COLUMNS, TpccMix, build_tpcc
from repro.workloads.ycsb import build_ycsb
from repro.workloads.ycsb.generator import ycsb_delayed_columns

pytestmark = pytest.mark.backend

FULL_MIX = TpccMix(
    neworder=0.4, payment=0.3, orderstatus=0.1, stocklevel=0.1, delivery=0.1
)

SMALL_BATCH = 1024  # 2^10
HEADLINE_BATCH = 16_384  # 2^14, the paper's headline batch


def _observe(engine, batches):
    """Run ``batches`` (lists of (name, params) specs) and capture every
    path-sensitive observable (mirrors test_batched_equivalence.py)."""
    out = []
    for specs in batches:
        batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
        result = engine.run_batch(batch)
        out.append(
            {
                "committed": result.stats.committed,
                "aborted": result.stats.aborted,
                "logic_aborted": result.stats.logic_aborted,
                "statuses": [t.status for t in batch],
                "reasons": [t.abort_reason for t in batch],
                "ops": [t.ops.raw for t in batch],
                "phase_ns": dict(result.stats.phase_ns),
                "rwset_ns": result.stats.rwset_ns,
                "abort_reasons": dict(result.stats.abort_reasons),
                "by_proc": dict(result.stats.committed_by_proc),
            }
        )
    out.append(engine.database.state_digest())
    return out


def _pairwise_identical(build, batches):
    """Assert numpy == mockgpu on fresh engines; return the mockgpu
    engine's backend for contract assertions."""
    runs, mock_backend = {}, None
    for name in ("numpy", "mockgpu"):
        engine = build(name)
        runs[name] = _observe(engine, batches)
        backend = engine._backend
        if name == "mockgpu":
            mock_backend = backend
            t = backend.transfer_stats()
            # the device contract: every host round-trip inside a kernel
            # phase went through an explicit crossing, and nothing in the
            # hot path silently upcast to float (the dtype audit)
            assert t.implicit_syncs == 0
            assert backend.upcasts == []
            assert t.h2d_count > 0 and t.d2h_count > 0  # real traffic flowed
        else:
            # the reference backend has no device: its ledger stays zero
            assert all(
                v == 0 for v in backend.transfer_stats().snapshot().values()
            )
    assert runs["mockgpu"] == runs["numpy"]
    return mock_backend


# ---------------------------------------------------------------------------
# TPC-C: full procedure mix, paper optimizations on, both batch sizes
# ---------------------------------------------------------------------------
def _tpcc_case(batch_size, n_batches):
    _, _, gen = build_tpcc(warehouses=2, num_items=2000, mix=FULL_MIX, seed=7)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(batch_size)]
        for _ in range(n_batches)
    ]

    def build(backend):
        db, registry, _ = build_tpcc(
            warehouses=2, num_items=2000, mix=FULL_MIX, seed=7
        )
        config = LTPGConfig(
            batch_size=batch_size,
            batched_exec=True,
            delayed_update=True,
            delayed_columns=DELAYED_COLUMNS,
            split_flags=True,
            split_columns=SPLIT_COLUMNS,
            array_backend=backend,
        )
        return LTPGEngine(db, registry, config)

    return build, batches


def test_tpcc_small_batch_identical_across_backends():
    build, batches = _tpcc_case(SMALL_BATCH, n_batches=2)
    _pairwise_identical(build, batches)


def test_tpcc_headline_batch_identical_across_backends():
    build, batches = _tpcc_case(HEADLINE_BATCH, n_batches=1)
    backend = _pairwise_identical(build, batches)
    # at the headline batch the paper's traffic shape holds: parameter
    # shipping (H2D) and read/write-set shipping (D2H) both scale with
    # the batch, so each direction moves at least batch_size * 8 bytes
    t = backend.transfer_stats()
    assert t.h2d_bytes > HEADLINE_BATCH * 8
    assert t.d2h_bytes > HEADLINE_BATCH * 8


# ---------------------------------------------------------------------------
# YCSB: RMW hazards, delayed deltas, B-tree range scans
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "ycsb_kwargs, delayed",
    [
        (dict(num_records=2000, workload="a", zipf_alpha=2.5, seed=11), True),
        (
            dict(
                num_records=2000,
                workload="e",
                zipf_alpha=0.9,
                seed=11,
                btree_scans=True,
            ),
            False,
        ),
    ],
    ids=["a-zipf25-delayed", "e-btree-ranges"],
)
def test_ycsb_identical_across_backends(ycsb_kwargs, delayed):
    _, _, gen = build_ycsb(**ycsb_kwargs)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(SMALL_BATCH)]
        for _ in range(2)
    ]

    def build(backend):
        db, registry, _ = build_ycsb(**ycsb_kwargs)
        config = LTPGConfig(
            batch_size=SMALL_BATCH,
            batched_exec=True,
            delayed_update=delayed,
            delayed_columns=ycsb_delayed_columns() if delayed else frozenset(),
            array_backend=backend,
        )
        return LTPGEngine(db, registry, config)

    _pairwise_identical(build, batches)


# ---------------------------------------------------------------------------
# SmallBank: six procedures, never-falling-back twins
# ---------------------------------------------------------------------------
def test_smallbank_identical_across_backends():
    _, _, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(SMALL_BATCH)]
        for _ in range(2)
    ]

    def build(backend):
        db, registry, _ = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
        config = LTPGConfig(
            batch_size=SMALL_BATCH,
            batched_exec=True,
            array_backend=backend,
        )
        return LTPGEngine(db, registry, config)

    _pairwise_identical(build, batches)


def test_twin_less_lanes_identical_across_backends():
    """``batched_exec=False`` under a device backend (once a
    ``ConfigError``): every lane runs its scalar procedure on the host,
    the write-back scatters still cross to the device and back, and the
    batch is the one the test oracle produces."""
    _, _, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(SMALL_BATCH)]
        for _ in range(2)
    ]

    def build(backend, engine_cls=LTPGEngine):
        db, registry, _ = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
        config = LTPGConfig(
            batch_size=SMALL_BATCH, batched_exec=False, array_backend=backend
        )
        return engine_cls(db, registry, config)

    _pairwise_identical(build, batches)
    assert _observe(build("numpy"), batches) == _observe(
        build("numpy", ReferenceEngine), batches
    )


# ---------------------------------------------------------------------------
# Config validation matrix (array_backend x feature flags)
# ---------------------------------------------------------------------------
def _smallbank_engine(**config_kwargs):
    db, registry, _ = build_smallbank(num_accounts=100, zipf_alpha=1.2, seed=3)
    return LTPGEngine(db, registry, LTPGConfig(**config_kwargs))


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(array_backend="cuda"), "unknown"),
        (dict(array_backend="NUMPY"), "unknown"),  # names are case-sensitive
        (dict(array_backend="auto"), "unknown"),  # nothing to resolve
    ],
    ids=[
        "unknown-name",
        "case-sensitive",
        "no-auto",
    ],
)
def test_invalid_backend_configs_raise_config_error(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        LTPGConfig(batch_size=64, **kwargs)


def test_explicit_numpy_accepts_every_mode():
    for kwargs in (dict(batched_exec=False), dict(trace=True)):
        engine = _smallbank_engine(batch_size=64, array_backend="numpy", **kwargs)
        assert engine._backend.name == "numpy"


# ---------------------------------------------------------------------------
# Observability: transfer counters flow through metrics + trace config
# ---------------------------------------------------------------------------
def test_transfer_metrics_surface_under_mockgpu():
    db, registry, gen = build_smallbank(num_accounts=100, zipf_alpha=1.2, seed=3)
    config = LTPGConfig(
        batch_size=128, batched_exec=True,
        array_backend="mockgpu", trace=True,
    )
    engine = LTPGEngine(db, registry, config)
    batch = [
        Transaction(t.procedure_name, t.params, tid=i)
        for i, t in enumerate(gen.make_batch(128))
    ]
    engine.run_batch(batch)
    snap = engine.metrics.snapshot()["counters"]
    ledger = engine._backend.transfer_stats()
    assert snap["transfer.h2d_bytes"] == ledger.h2d_bytes
    assert snap["transfer.d2h_bytes"] == ledger.d2h_bytes
    assert snap["transfer.count"] == ledger.count


def test_no_transfer_metrics_under_numpy():
    db, registry, gen = build_smallbank(num_accounts=100, zipf_alpha=1.2, seed=3)
    config = LTPGConfig(
        batch_size=128, batched_exec=True,
        array_backend="numpy", trace=True,
    )
    engine = LTPGEngine(db, registry, config)
    batch = [
        Transaction(t.procedure_name, t.params, tid=i)
        for i, t in enumerate(gen.make_batch(128))
    ]
    engine.run_batch(batch)
    # zero transfers -> the counter series is never created
    assert "transfer.count" not in engine.metrics.snapshot()["counters"]
