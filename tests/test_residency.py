"""Device residency: coherence edges and byte identity.

On a device backend (``mockgpu``) the residency layer
(:mod:`repro.xp.residency`) keeps the authoritative table snapshot on
the device across batches, in memory the host does not alias;
everything here pins the edges where that ownership inversion could go
stale:

* byte identity of the full observable surface (statuses, op streams,
  final digest) between ``mockgpu`` and the numpy reference on TPC-C,
  YCSB and SmallBank — including the lanes that execute on the host
  (``fall_back`` lanes, twin-less procedures) and must still read the
  device's snapshot;
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

from repro.core import LTPGConfig, LTPGEngine
from repro.core.batch import BatchObserver
from repro.storage.database import Database
from repro.storage.schema import ColumnDef, Schema
from repro.txn import Transaction
from repro.workloads.smallbank import build_smallbank
from repro.workloads.tpcc import DELAYED_COLUMNS, SPLIT_COLUMNS, TpccMix, build_tpcc
from repro.workloads.ycsb import build_ycsb
from repro.workloads.ycsb.generator import ycsb_delayed_columns

pytestmark = pytest.mark.backend

FULL_MIX = TpccMix(
    neworder=0.4, payment=0.3, orderstatus=0.1, stocklevel=0.1, delivery=0.1
)
BATCH = 1024


def _tpcc_build(
    backend, warehouses=2, num_items=2000, mix=FULL_MIX, **overrides
):
    db, registry, gen = build_tpcc(
        warehouses=warehouses, num_items=num_items, mix=mix, seed=7
    )
    config = LTPGConfig(
        batch_size=BATCH,
        delayed_update=True,
        delayed_columns=DELAYED_COLUMNS,
        split_flags=True,
        split_columns=SPLIT_COLUMNS,
        array_backend=backend,
        **overrides,
    )
    return LTPGEngine(db, registry, config), gen


def _tpcc_repeated_items_build(backend):
    # NewOrders of 5-15 lines over 40 items: most repeat an item, and a
    # repeated item sends the lane to ``fall_back`` — a scalar lane whose
    # ``ctx.read`` of ``stock`` must see what the device wrote back
    return _tpcc_build(
        backend, num_items=40, mix=TpccMix.neworder_percentage(100)
    )


def _tpcc_twin_less_build(backend):
    # every lane of every procedure a scalar lane
    return _tpcc_build(backend, batched_exec=False)


def _ycsb_build(backend):
    kwargs = dict(num_records=2000, workload="a", zipf_alpha=2.5, seed=11)
    db, registry, gen = build_ycsb(**kwargs)
    config = LTPGConfig(
        batch_size=BATCH,
        delayed_update=True,
        delayed_columns=ycsb_delayed_columns(),
        array_backend=backend,
    )
    return LTPGEngine(db, registry, config), gen


def _smallbank_build(backend):
    db, registry, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    config = LTPGConfig(batch_size=BATCH, array_backend=backend)
    return LTPGEngine(db, registry, config), gen


_BUILDS = {
    "tpcc": _tpcc_build,
    "ycsb": _ycsb_build,
    "smallbank": _smallbank_build,
    "tpcc-repeated-items": _tpcc_repeated_items_build,
    "tpcc-twin-less": _tpcc_twin_less_build,
}


class _ExecuteFences(BatchObserver):
    """Counts the residency fences that land inside the execute stage."""

    grown = 0

    def stage_entered(self, engine, batch, stage):
        if stage.name == "execute":
            self._before = engine._residency.stats.fences

    def stage_leaving(self, engine, batch, stage):
        if stage.name == "execute":
            self.grown += engine._residency.stats.fences - self._before


def _specs(gen, n_batches):
    return [
        [(t.procedure_name, t.params) for t in gen.make_batch(BATCH)]
        for _ in range(n_batches)
    ]


def _observe(engine, batches):
    out = []
    for specs in batches:
        batch = [Transaction(n, p, tid=i) for i, (n, p) in enumerate(specs)]
        result = engine.run_batch(batch)
        out.append(
            {
                "committed": result.stats.committed,
                "aborted": result.stats.aborted,
                "statuses": [t.status for t in batch],
                "reasons": [t.abort_reason for t in batch],
                "ops": [t.ops.raw for t in batch],
            }
        )
    out.append(engine.database.state_digest())
    return out


def _run(workload, backend, *observers):
    engine, gen = _BUILDS[workload](backend)
    engine.observers += observers
    return _observe(engine, _specs(gen, 3)), engine


# ---------------------------------------------------------------------------
# Byte identity with the numpy reference, scalar lanes included
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(_BUILDS))
def test_resident_byte_identical(workload):
    fences = _ExecuteFences()
    device, engine = _run(workload, "mockgpu", fences)
    reference, _ = _run(workload, "numpy")
    assert device == reference
    if workload == "tpcc-repeated-items":
        # the scalar lanes read their cells off the device one word at a
        # time (``DeviceTableView.read_cell``) — they did run, and not
        # one of them fenced a column (``read_at`` and range reads, which
        # NewOrder does not make, still go through ``Table.read``'s)
        events = engine._backend.transfer_stats().events
        assert ("d2h", "execute:item") in events
        assert fences.grown == 0


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
        _observe(engine, batches)
        steady[warehouses] = engine.last_transfers["h2d_bytes"]
    assert abs(steady[8] - steady[2]) <= 0.02 * steady[2]
    assert steady[8] * 10 < engine.database.nbytes


# ---------------------------------------------------------------------------
# reset_run_state: run boundary = host sync, device copies survive
# ---------------------------------------------------------------------------
def test_reset_run_state_syncs_host_and_keeps_device_cache():
    engine, gen = _tpcc_build("mockgpu")
    reference_engine, _ = _tpcc_build("numpy")
    batches = _specs(gen, 2)
    expected_mid = _observe(reference_engine, batches[:1])[-1]
    expected_end = _observe(reference_engine, batches[1:])[-1]

    _observe(engine, batches[:1])
    engine.reset_run_state()
    # after the run-boundary fence the *host* memory is current without
    # any further residency involvement
    fences = engine._residency.stats.fences
    assert engine.database.state_digest() == expected_mid
    assert engine._residency.stats.fences == fences
    # and the surviving device copies stay coherent for the next run
    assert _observe(engine, batches[1:])[-1] == expected_end


# ---------------------------------------------------------------------------
# close(): what is left to release is the device-resident snapshot
# ---------------------------------------------------------------------------
def test_close_fences_and_unhooks_and_a_later_batch_rebuilds():
    engine, gen = _tpcc_build("mockgpu")
    reference_engine, _ = _tpcc_build("numpy")
    batches = _specs(gen, 2)
    expected = [_observe(reference_engine, [specs]) for specs in batches]

    first = _observe(engine, batches[:1])[:-1]
    tables = list(engine.database.tables)
    assert any(t._resident_view is not None for t in tables)
    engine.close()
    engine.close()  # idempotent
    # fenced and unhooked: plain host memory holds the snapshot
    assert all(t._resident_view is None for t in tables)
    assert first + [engine.database.state_digest()] == expected[0]
    assert _observe(engine, batches[1:]) == expected[1]
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
# Serve-loop reuse across ServeSession runs
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
