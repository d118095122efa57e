"""Device residency: coherence edges and byte identity.

On a device backend (``mockgpu``) the residency layer
(:mod:`repro.xp.residency`) keeps the authoritative table snapshot on
the device across batches, in memory the host does not alias;
everything here pins the edges where that ownership inversion could go
stale:

* byte identity with the host-only oracle on TPC-C, YCSB and SmallBank
  — conformance-lattice cells (``helpers.check_cell``) of three
  1,024-lane batches, whose mockgpu
  ride-along also holds that execute fences no column — including the
  lanes that execute on the host (``fall_back`` lanes, twin-less
  procedures) and must still read the device's snapshot;
* steady-state transfer that follows the batch's ops, not the
  database's size (ledger-counted on mockgpu, deterministic);
* ``reset_run_state`` (run boundary = full host sync, device copies
  survive for the next run) and ``close``;
* table ``_grow`` / ``append_keys`` during inserts (capacity doubling
  swaps the host ndarray out from under the device cache; the view must
  fence first and re-upload lazily);
* serve-loop reuse: back-to-back :func:`~repro.serve.api.serve_run`
  calls on one device engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    build_bank,
    check_cell,
    oracle_cell,
    run_specs,
    small_tpcc,
    source_of,
)
from repro.core import LTPGConfig, LTPGEngine
from repro.storage.database import Database
from repro.storage.schema import ColumnDef, Schema
from repro.txn import Transaction
from repro.workloads.smallbank import build_smallbank

pytestmark = pytest.mark.backend

BATCH = 1024


def _tpcc_build(backend, warehouses=2):
    db, registry, marks, gen = small_tpcc(warehouses=warehouses)
    config = LTPGConfig(batch_size=BATCH, array_backend=backend, **marks)
    return LTPGEngine(db, registry, config), gen


def _specs(gen, n_batches):
    return [
        [(t.procedure_name, t.params) for t in gen.make_batch(BATCH)]
        for _ in range(n_batches)
    ]


# ---------------------------------------------------------------------------
# Byte identity with the oracle, scalar lanes included
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "source, config",
    [
        ("smallbank-500", "mockgpu"),
        ("tpcc-full-mix", "mockgpu"),
        ("tpcc-repeated-items", "mockgpu"),
        ("tpcc-full-mix", "mockgpu-twin-less"),  # every lane a scalar lane
        ("ycsb-a-delayed", "mockgpu"),
    ],
    ids=["smallbank", "tpcc", "tpcc-repeated-items", "tpcc-twin-less", "ycsb"],
)
def test_resident_byte_identical(source, config):
    cell = check_cell(f"{source}@{BATCH}x3", config)
    if source == "tpcc-repeated-items":
        # the fall_back lanes read their cells off the device one word
        # at a time (``DeviceTableView.read_cell``): they did run
        assert ("d2h", "execute:item") in cell.events


def test_resident_steady_state_transfer_drop():
    # what residency is for: once the columns are up (the first three
    # batches here pay first-touch uploads), a batch moves parameters
    # and op-sized shuttle traffic — so the same requests against a
    # database four times the size cost the same H2D.  Shipping columns
    # per batch, the layout this replaced, scaled with the tables.
    _, gen = _tpcc_build("numpy")
    batches = _specs(gen, 5)
    steady = {}
    for warehouses in (2, 8):
        engine, _ = _tpcc_build("mockgpu", warehouses=warehouses)
        run_specs(engine, batches)
        steady[warehouses] = engine.last_transfers["h2d_bytes"]
    assert abs(steady[8] - steady[2]) <= 0.02 * steady[2]
    assert steady[8] * 10 < engine.database.nbytes


#: the run-boundary tests' source (they run its first two batches)
RUN = f"tpcc-full-mix@{BATCH}x3"


def _device_run():
    """A mockgpu engine on :data:`RUN`, its batches, and the oracle's
    observation of each batch."""
    db, registry, marks, batches, _ = source_of(RUN).setup()
    config = LTPGConfig(batch_size=BATCH, array_backend="mockgpu", **marks)
    expected = oracle_cell(RUN, "default", "direct", ())["batches"]
    return LTPGEngine(db, registry, config), batches, expected


def _step(engine, specs, expected) -> str:
    """Run one batch under the oracle's TIDs; every lane must show the
    oracle's verdict and ops.  Returns the oracle's digest after it."""
    _, lanes, _, digest = expected
    batch = [Transaction(n, p, tid=lane[0]) for (n, p), lane in zip(specs, lanes)]
    engine.run_batch(batch)
    seen = [(t.status, t.abort_reason, t.ops.raw) for t in batch]
    assert seen == [(status, reason, raw) for _, status, reason, _, raw in lanes]
    return digest


# ---------------------------------------------------------------------------
# A scalar lane's slot reads take one cell, as its key reads do
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("read", ["read_at", "range_read"])
def test_scalar_slot_read_takes_a_cell_not_a_column(read):
    db, registry = build_bank()
    db.table("accounts").add_ordered_index()

    @registry.register("audit_at")
    def audit_at(ctx, a):
        if read == "read_at":
            ctx.read_at("accounts", a, "balance")
        else:
            ctx.range_read("accounts", a, a, "balance")

    engine = LTPGEngine(
        db, registry, LTPGConfig(batch_size=8, array_backend="mockgpu")
    )
    engine.run_batch([Transaction("transfer", (3, 4, 5), tid=0)])
    assert "balance" in db.table("accounts")._resident_view._dirty
    fences = engine._residency.stats.snapshot()
    batch = [Transaction("audit_at", (3,), tid=1)]
    engine.run_batch(batch)
    # the dirty balance column stays on the device: no fence, and the
    # op read the committed value through a one-word copy
    assert engine._residency.stats.snapshot() == fences
    assert [op.value for op in batch[0].ops] == [995]


# ---------------------------------------------------------------------------
# reset_run_state: run boundary = host sync, device copies survive
# ---------------------------------------------------------------------------
def test_reset_run_state_syncs_host_and_keeps_device_cache():
    engine, batches, expected = _device_run()
    expected_mid = _step(engine, batches[0], expected[0])
    engine.reset_run_state()
    # after the run-boundary fence the *host* memory is current without
    # any further residency involvement
    fences = engine._residency.stats.fences
    assert engine.database.state_digest() == expected_mid
    assert engine._residency.stats.fences == fences
    # and the surviving device copies stay coherent for the next run
    expected_end = _step(engine, batches[1], expected[1])
    assert engine.database.state_digest() == expected_end


# ---------------------------------------------------------------------------
# close(): what is left to release is the device-resident snapshot
# ---------------------------------------------------------------------------
def test_close_fences_and_unhooks_and_a_later_batch_rebuilds():
    engine, batches, expected = _device_run()
    expected_mid = _step(engine, batches[0], expected[0])
    tables = list(engine.database.tables)
    assert any(t._resident_view is not None for t in tables)
    engine.close()
    engine.close()  # idempotent
    # fenced and unhooked: plain host memory holds the snapshot
    assert all(t._resident_view is None for t in tables)
    assert engine.database.state_digest() == expected_mid
    expected_end = _step(engine, batches[1], expected[1])
    assert engine.database.state_digest() == expected_end
    # the next batch uploaded and hooked the tables again
    assert any(t._resident_view is not None for t in tables)


# ---------------------------------------------------------------------------
# _grow / append_keys: capacity doubling swaps the host ndarray
# ---------------------------------------------------------------------------
def _unit_fixture():
    from repro.xp import get_backend
    from repro.xp.residency import ResidencyManager

    db = Database("t")
    schema = Schema("acct", "key", (ColumnDef("bal"), ColumnDef("flags")))
    table = db.create_table(schema, capacity=4)
    for k in range(4):
        table.insert(k * 10, {"bal": k})
    xp = get_backend("mockgpu")
    res = ResidencyManager(xp, db)
    return xp, res, table


def test_grow_fences_dirty_columns_before_resize():
    xp, res, table = _unit_fixture()
    dev = res.device_column(table, "bal")
    xp.scatter_add(dev, xp.from_host(np.array([0, 2])),
                   xp.from_host(np.array([100, 100])))
    res.mark_dirty(table, "bal")
    # inserts past capacity trigger _grow: the fence must land the
    # device deltas in the *old* array before np.resize copies it
    for k in range(4, 9):
        row = table.insert(k * 10, {"bal": k})
        res.note_appended(table, np.array([row]))
    assert table.column("bal")[:9].tolist() == [100, 1, 102, 3, 4, 5, 6, 7, 8]
    before = res.stats.uploads
    # the device cache re-uploads lazily from the grown host array
    grown = res.device_column(table, "bal")
    assert res.stats.uploads > before
    assert xp.to_host(grown)[:9].tolist() == [100, 1, 102, 3, 4, 5, 6, 7, 8]


def test_append_keys_mirrors_into_resident_keys():
    xp, res, table = _unit_fixture()
    dev_keys = res.device_column(table, None)  # None = the key column
    assert xp.to_host(dev_keys)[:4].tolist() == [0, 10, 20, 30]
    rows = table.append_keys(np.array([40, 50], dtype=np.int64))
    res.note_appended(table, rows)
    fresh = res.device_column(table, None)
    assert xp.to_host(fresh)[:6].tolist() == [0, 10, 20, 30, 40, 50]


def test_host_write_drops_stale_device_copy():
    xp, res, table = _unit_fixture()
    dev = res.device_column(table, "bal")
    assert xp.to_host(dev)[1] == 1
    table.write(1, "bal", 777)  # host write: device copy is now stale
    fresh = res.device_column(table, "bal")
    assert xp.to_host(fresh)[1] == 777


# ---------------------------------------------------------------------------
# Serve-loop reuse across back-to-back serve_run calls
# ---------------------------------------------------------------------------
def test_serve_loop_reuse_back_to_back_runs():
    from repro.serve.api import serve_run

    def run_twice(backend):
        db, registry, gen = build_smallbank(
            num_accounts=500, zipf_alpha=1.2, seed=3
        )
        config = LTPGConfig(batch_size=256, array_backend=backend)
        engine = LTPGEngine(db, registry, config)
        reports = [
            serve_run(
                engine, gen, workload="smallbank", num_requests=200,
                mode="open",
            )
            for _ in range(2)
        ]
        digest = db.state_digest()
        return [
            (r.submitted, r.committed, r.batches, r.latency) for r in reports
        ], digest

    assert run_twice("mockgpu") == run_twice("numpy")
