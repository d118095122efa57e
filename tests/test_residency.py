"""Device-resident table residency: coherence edges and byte identity.

The residency layer (:mod:`repro.xp.residency`) keeps the authoritative
table snapshot on the device across batches; everything here pins the
edges where that ownership inversion could go stale:

* byte identity of the full observable surface (statuses, op streams,
  final digest) between ``device_resident=0`` and ``device_resident=1``
  on TPC-C, YCSB and SmallBank;
* the steady-state transfer drop the feature exists for (ledger-counted
  on mockgpu, deterministic);
* backend swap mid-session (dirty columns fence through the *outgoing*
  backend's crossings before the new backend re-uploads);
* ``reset_run_state`` (run boundary = full host sync, device copies
  survive for the next run);
* table ``_grow`` / ``append_keys`` during inserts (capacity doubling
  swaps the host ndarray out from under the device cache; the view must
  fence first and re-upload lazily);
* serve-loop reuse: back-to-back :func:`~repro.serve.api.serve_run`
  calls on one resident engine.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import LTPGConfig, LTPGEngine
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


def _tpcc_build(backend, resident, **overrides):
    db, registry, gen = build_tpcc(
        warehouses=2, num_items=2000, mix=FULL_MIX, seed=7
    )
    config = LTPGConfig(
        batch_size=BATCH,
        batched_exec=True,
        delayed_update=True,
        delayed_columns=DELAYED_COLUMNS,
        split_flags=True,
        split_columns=SPLIT_COLUMNS,
        array_backend=backend,
        device_resident=resident,
        **overrides,
    )
    return LTPGEngine(db, registry, config), gen


def _ycsb_build(backend, resident):
    kwargs = dict(num_records=2000, workload="a", zipf_alpha=2.5, seed=11)
    db, registry, gen = build_ycsb(**kwargs)
    config = LTPGConfig(
        batch_size=BATCH,
        batched_exec=True,
        delayed_update=True,
        delayed_columns=ycsb_delayed_columns(),
        array_backend=backend,
        device_resident=resident,
    )
    return LTPGEngine(db, registry, config), gen


def _smallbank_build(backend, resident):
    db, registry, gen = build_smallbank(num_accounts=500, zipf_alpha=1.2, seed=3)
    config = LTPGConfig(
        batch_size=BATCH,
        batched_exec=True,
        array_backend=backend,
        device_resident=resident,
    )
    return LTPGEngine(db, registry, config), gen


_BUILDS = {
    "tpcc": _tpcc_build,
    "ycsb": _ycsb_build,
    "smallbank": _smallbank_build,
}


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


def _run(workload, backend, resident, n_batches=3):
    engine, gen = _BUILDS[workload](backend, resident)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(BATCH)]
        for _ in range(n_batches)
    ]
    observed = _observe(engine, batches)
    transfers = engine.last_transfers
    return observed, transfers


# ---------------------------------------------------------------------------
# Byte identity across device_resident on all three workloads
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["tpcc", "ycsb", "smallbank"])
def test_resident_byte_identical(workload):
    baseline, _ = _run(workload, "mockgpu", resident=False)
    resident, _ = _run(workload, "mockgpu", resident=True)
    reference, _ = _run(workload, "numpy", resident=False)
    assert resident == baseline
    assert resident == reference


@pytest.mark.parametrize("workload", ["tpcc", "ycsb", "smallbank"])
def test_resident_inert_on_numpy(workload):
    # host-identity backend: the flag changes nothing, including the
    # (all-zero) transfer ledger
    off, t_off = _run(workload, "numpy", resident=False)
    on, t_on = _run(workload, "numpy", resident=True)
    assert on == off
    assert t_on == t_off


def test_resident_steady_state_transfer_drop():
    # the reason the feature exists: steady-state per-batch H2D falls
    # from whole-column round-trips to op-proportional shuttle traffic
    _, baseline = _run("tpcc", "mockgpu", resident=False)
    _, resident = _run("tpcc", "mockgpu", resident=True)
    assert resident["h2d_bytes"] * 3 <= baseline["h2d_bytes"]
    assert resident["d2h_bytes"] < baseline["d2h_bytes"]


# ---------------------------------------------------------------------------
# Backend swap mid-session
# ---------------------------------------------------------------------------
def test_backend_swap_mid_session_fences_through_old_backend():
    engine, gen = _tpcc_build("mockgpu", resident=True)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(BATCH)]
        for _ in range(2)
    ]
    reference_engine, _ = _tpcc_build("numpy", resident=False)
    expected = _observe(reference_engine, batches)

    out = _observe(engine, batches[:1])[:-1]
    # swap the whole config object mid-session: _ensure_backend must
    # fence the dirty resident columns through the outgoing mockgpu
    # crossings before numpy takes over on the same host arrays
    engine.config = dataclasses.replace(
        engine.config, array_backend="numpy", device_resident=False
    )
    out.extend(_observe(engine, batches[1:]))
    assert out == expected
    assert engine._residency is None  # old cache detached, not reused


def test_resident_flag_flip_mid_session():
    engine, gen = _tpcc_build("mockgpu", resident=True)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(BATCH)]
        for _ in range(2)
    ]
    reference_engine, _ = _tpcc_build("mockgpu", resident=False)
    expected = _observe(reference_engine, batches)

    out = _observe(engine, batches[:1])[:-1]
    engine.config = dataclasses.replace(engine.config, device_resident=False)
    out.extend(_observe(engine, batches[1:]))
    assert out == expected


# ---------------------------------------------------------------------------
# reset_run_state: run boundary = host sync, device copies survive
# ---------------------------------------------------------------------------
def test_reset_run_state_syncs_host_and_keeps_device_cache():
    engine, gen = _tpcc_build("mockgpu", resident=True)
    reference_engine, _ = _tpcc_build("mockgpu", resident=False)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(BATCH)]
        for _ in range(2)
    ]
    expected_mid = _observe(reference_engine, batches[:1])[-1]
    expected_end = _observe(reference_engine, batches[1:])[-1]

    _observe(engine, batches[:1])
    engine.reset_run_state()
    # after the run-boundary fence the *host* digest is current without
    # any further residency involvement
    assert engine.database.state_digest() == expected_mid
    # and the surviving device copies stay coherent for the next run
    assert _observe(engine, batches[1:])[-1] == expected_end


# ---------------------------------------------------------------------------
# close(): what is left to release is the residency cache
# ---------------------------------------------------------------------------
def test_close_fences_and_unhooks_and_a_later_batch_rebuilds():
    engine, gen = _tpcc_build("mockgpu", resident=True)
    reference_engine, _ = _tpcc_build("mockgpu", resident=False)
    batches = [
        [(t.procedure_name, t.params) for t in gen.make_batch(BATCH)]
        for _ in range(2)
    ]
    expected = _observe(reference_engine, batches)

    out = _observe(engine, batches[:1])[:-1]
    assert engine._residency is not None
    engine.close()
    engine.close()  # idempotent
    assert engine._residency is None
    assert all(t._resident_view is None for t in engine.database.tables)
    out.extend(_observe(engine, batches[1:]))
    assert out == expected
    assert engine._residency is not None  # rebuilt by the next batch


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

    def run_twice(resident):
        db, registry, gen = build_smallbank(
            num_accounts=500, zipf_alpha=1.2, seed=3
        )
        config = LTPGConfig(
            batch_size=256,
            batched_exec=True,
            array_backend="mockgpu",
            device_resident=resident,
        )
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

    resident_reports, resident_digest = run_twice(True)
    baseline_reports, baseline_digest = run_twice(False)
    assert resident_reports == baseline_reports
    assert resident_digest == baseline_digest
