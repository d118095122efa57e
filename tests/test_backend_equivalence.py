"""Cross-backend byte-identity for the batched executor.

The whole point of the ``repro.xp`` shim is that swapping the array
backend changes *where* the batched twins compute and nothing else.
The differential cells here are conformance-lattice cells
(``helpers.check_cell``) on ``array_backend="mockgpu"`` (the device
contract checker): each must observe what the host-only oracle does,
and each rides along the mockgpu device contract — zero implicit host
round-trips inside the kernel phases, zero float upcasts, real traffic
both ways, no residency fence inside execute — while a numpy cell's
transfer ledger stays zero.  At the paper's headline batch (2^14) the
per-op oracle is too slow, so that one cell meets numpy instead.

Also here: ``LTPGConfig.array_backend`` validation (unknown names,
``auto`` among them) and the ``transfer.*`` metrics surfaced through the
observability stack.
"""

from __future__ import annotations

import pytest

from helpers import HEADLINE, SOURCES, check_cell
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import ConfigError
from repro.txn import Transaction
from repro.workloads.smallbank import build_smallbank

pytestmark = pytest.mark.backend


#: the paper's small batch (2^10), three batches of it
SMALL = "@1024x3"


def test_tpcc_small_batch_identical_across_backends():
    check_cell("tpcc-full-mix" + SMALL, "mockgpu")


def test_tpcc_headline_batch_identical_across_backends():
    ledger = check_cell(HEADLINE, "mockgpu").ledger
    # at the headline batch the paper's traffic shape holds: parameter
    # shipping (H2D) and read/write-set shipping (D2H) both scale with
    # the batch, so each direction moves at least batch_size * 8 bytes
    lanes = SOURCES[HEADLINE].lanes
    assert ledger["h2d_bytes"] > lanes * 8 and ledger["d2h_bytes"] > lanes * 8


@pytest.mark.parametrize(
    "source",
    ["ycsb-a-delayed" + SMALL, "ycsb-e@1024x2"],
    ids=["a-zipf25-delayed", "e-btree-ranges"],
)
def test_ycsb_identical_across_backends(source):
    check_cell(source, "mockgpu")


def test_smallbank_identical_across_backends():
    check_cell("smallbank-500" + SMALL, "mockgpu")


def test_twin_less_lanes_identical_across_backends():
    """``batched_exec=False`` under a device backend (once a
    ``ConfigError``): every lane runs its scalar procedure on the host,
    the write-back scatters still cross to the device and back, and the
    batch is the one the test oracle produces."""
    check_cell("smallbank-500" + SMALL, "mockgpu-twin-less")
    check_cell("smallbank-500" + SMALL, "twin-less")


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
def _traced_batch(backend):
    """A traced engine on ``backend`` after one 128-lane SmallBank batch."""
    db, registry, gen = build_smallbank(num_accounts=100, zipf_alpha=1.2, seed=3)
    config = LTPGConfig(batch_size=128, array_backend=backend, trace=True)
    engine = LTPGEngine(db, registry, config)
    batch = [
        Transaction(t.procedure_name, t.params, tid=i)
        for i, t in enumerate(gen.make_batch(128))
    ]
    engine.run_batch(batch)
    return engine


def test_transfer_metrics_surface_under_mockgpu():
    engine = _traced_batch("mockgpu")
    snap = engine.metrics.snapshot()["counters"]
    ledger = engine._backend.transfer_stats()
    assert snap["transfer.h2d_bytes"] == ledger.h2d_bytes
    assert snap["transfer.d2h_bytes"] == ledger.d2h_bytes
    assert snap["transfer.count"] == ledger.count


def test_no_transfer_metrics_under_numpy():
    engine = _traced_batch("numpy")
    # zero transfers -> the counter series is never created
    assert "transfer.count" not in engine.metrics.snapshot()["counters"]
