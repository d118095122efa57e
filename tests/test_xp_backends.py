"""Unit tests for the ``repro.xp`` array-backend shim.

Covers the registry (name lookup, a clean error for unknown
backends), the NumPy reference backend's
zero-copy/zero-ledger contract, and the ``mockgpu`` contract checker:
primitive parity against NumPy, transfer-ledger accounting, the strict
kernel-phase rules (implicit host round-trips raise, scalar-reduction
readbacks are counted but legal), float-upcast detection, and the
simulated dispatch/sync event ordering.  Full-engine cross-backend
byte-identity lives in ``tests/test_backend_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendContractError, BackendError
from repro.xp import (
    BACKEND_NAMES,
    MockGpuBackend,
    Rows,
    get_backend,
    segment_sum,
    sorted_runs,
)
from repro.xp.rows import pack_fields, run_ends

pytestmark = pytest.mark.backend


# ---------------------------------------------------------------------------
# Registry: lookup
# ---------------------------------------------------------------------------
def test_host_backends_always_available():
    assert BACKEND_NAMES == ("numpy", "mockgpu")
    assert [get_backend(n).name for n in BACKEND_NAMES] == list(BACKEND_NAMES)
    assert [get_backend(n).is_device for n in BACKEND_NAMES] == [False, True]


def test_unknown_backend_name_raises_backend_error():
    with pytest.raises(BackendError, match="unknown array backend"):
        get_backend("gpu")
    with pytest.raises(BackendError, match="numpy"):
        get_backend("")  # message lists the valid names
    with pytest.raises(BackendError, match="unknown array backend"):
        get_backend("auto")  # there is nothing left to resolve


def test_numpy_backend_is_a_shared_singleton():
    assert get_backend("numpy") is get_backend("numpy")


def test_mockgpu_instances_are_isolated():
    b1, b2 = get_backend("mockgpu"), get_backend("mockgpu")
    assert b1 is not b2
    arr = b1.from_host(np.arange(4, dtype=np.int64))
    assert b1.is_device_array(arr)
    assert not b2.is_device_array(arr)  # per-instance device class
    assert b1.transfer_stats().h2d_count == 1
    assert b2.transfer_stats().h2d_count == 0


def test_device_info_identity_blocks():
    for name in ("numpy", "mockgpu"):
        info = get_backend(name).device_info()
        assert info["backend"] == name
        assert "version" in info and "library" in info


# ---------------------------------------------------------------------------
# NumPy reference: identity crossings, zero ledger
# ---------------------------------------------------------------------------
def test_numpy_crossings_are_identity_and_unaccounted():
    xp = get_backend("numpy")
    a = np.arange(8, dtype=np.int64)
    assert xp.from_host(a) is a
    assert xp.to_host(a) is a
    assert xp.item(a[:1]) == 0
    assert xp.tolist(a) == list(range(8))
    snap = xp.transfer_stats().snapshot()
    assert all(v == 0 for v in snap.values()), snap
    assert not xp.is_device


# ---------------------------------------------------------------------------
# mockgpu primitive parity against the reference
# ---------------------------------------------------------------------------
_A = np.array([5, 1, 4, 1, 3, 9, 2, 6], dtype=np.int64)
_B = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.int64)

_PRIMITIVES = {
    "asarray": lambda xp, a, b: xp.asarray(a, dtype=np.int64),
    "zeros": lambda xp, a, b: xp.zeros(5, dtype=np.int64),
    "ones": lambda xp, a, b: xp.ones((2, 3), dtype=np.int64),
    "full": lambda xp, a, b: xp.full(4, -7, dtype=np.int64),
    "arange": lambda xp, a, b: xp.arange(6, dtype=np.int64),
    "concatenate": lambda xp, a, b: xp.concatenate([a, b]),
    "stack": lambda xp, a, b: xp.stack([a, b]),
    "repeat": lambda xp, a, b: xp.repeat(a, b),
    "broadcast_to": lambda xp, a, b: xp.broadcast_to(a[:4], (2, 4)),
    "where": lambda xp, a, b: xp.where(b.astype(bool), a, -a),
    "astype": lambda xp, a, b: xp.astype(a.astype(np.int32), np.int64),
    "argsort": lambda xp, a, b: xp.argsort(a, stable=True),
    "lexsort": lambda xp, a, b: xp.lexsort((a, b)),
    "sort": lambda xp, a, b: xp.sort(a),
    "unique": lambda xp, a, b: xp.unique(a),
    "searchsorted": lambda xp, a, b: xp.searchsorted(np.sort(a), b + 3),
    "flatnonzero": lambda xp, a, b: xp.flatnonzero(b),
    "cumsum": lambda xp, a, b: xp.cumsum(a),
    "bincount": lambda xp, a, b: xp.bincount(b, minlength=4),
}


@pytest.mark.parametrize("op", sorted(_PRIMITIVES))
def test_mockgpu_primitive_matches_numpy(op):
    fn = _PRIMITIVES[op]
    ref = fn(get_backend("numpy"), _A.copy(), _B.copy())
    mock = get_backend("mockgpu")
    dev = fn(mock, mock.from_host(_A.copy()), mock.from_host(_B.copy()))
    host = mock.to_host(dev)
    np.testing.assert_array_equal(host, ref)
    assert host.dtype == np.asarray(ref).dtype
    assert mock.transfer_stats().implicit_syncs == 0


def test_stable_argsort_preserves_tie_order():
    keys = np.array([2, 1, 2, 1, 2, 1], dtype=np.int64)
    for name in ("numpy", "mockgpu"):
        xp = get_backend(name)
        order = xp.to_host(xp.argsort(xp.from_host(keys), stable=True))
        np.testing.assert_array_equal(order, [1, 3, 5, 0, 2, 4])


# ---------------------------------------------------------------------------
# The sorted-run primitive: one property, both sort paths, both backends
# ---------------------------------------------------------------------------
def _sort_fields(shape: str, table: np.ndarray) -> list[np.ndarray]:
    """Three sort fields from small non-negative columns, bent so that
    they pack, or pack with no room left for a row index, or hold a
    negative value, or span more than one word."""
    a, b, c = table[:, 0], table[:, 1], table[:, 2]
    if shape == "negative":
        b = b - 7
    elif shape == "wide":
        far = (np.arange(a.size, dtype=np.int64) % 2) << 40
        b, c = b + far, c + far
    elif shape == "tight":
        c = c + ((np.arange(a.size, dtype=np.int64) % 2) << 56)
    return [a, b, c]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("shape", ["packs", "tight", "negative", "wide"])
@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*(st.integers(0, 3),) * 3, st.integers(-(1 << 40), 1 << 40)),
        min_size=2, max_size=40,
    ),
)
def test_sorted_runs_and_segment_sum_match_a_group_by(backend, shape, rows):
    """``sorted_runs`` is ``np.lexsort`` plus the run boundaries of a
    Python group-by, and ``segment_sum`` that group-by's exact sums —
    whichever sort it picks: a negative field or spans past one word
    force the multi-key sort, anything else takes the packed key."""
    table = np.array(rows, dtype=np.int64)
    fields = _sort_fields(shape, table)
    values = table[:, 3]
    packs = pack_fields(*fields) is not None
    assert packs == (shape in ("packs", "tight"))

    xp = get_backend(backend)
    order, starts = sorted_runs(*map(xp.from_host, fields), xp=xp)
    sums = segment_sum(xp.from_host(values)[order], starts, xp=xp)
    order, starts, sums = map(xp.to_host, (order, starts, sums))

    np.testing.assert_array_equal(order, np.lexsort(fields[::-1]))
    groups: dict[tuple, int] = {}
    for i in order.tolist():  # dicts keep first-seen order: sorted order
        key = tuple(int(f[i]) for f in fields)
        groups[key] = groups.get(key, 0) + int(values[i])
    heads = order[starts]
    assert [tuple(int(f[i]) for f in fields) for i in heads] == list(groups)
    assert sums.tolist() == list(groups.values())
    assert sums.dtype == np.int64
    lengths = run_ends(starts, order.size) - starts
    assert lengths.sum() == order.size and (lengths > 0).all()
    if xp.is_device:
        assert xp.transfer_stats().implicit_syncs == 0


def test_sorted_runs_of_nothing_and_of_one_field():
    nothing = np.empty(0, dtype=np.int64)
    order, starts = sorted_runs(nothing, nothing)
    assert order.size == starts.size == 0
    # a single field is its own key: negative values need no fallback
    order, starts = sorted_runs(np.array([3, -1, 3, -1], dtype=np.int64))
    assert order.tolist() == [1, 3, 0, 2] and starts.tolist() == [0, 2]


# ---------------------------------------------------------------------------
# The row record
# ---------------------------------------------------------------------------
class _Pairs(Rows):
    FIELDS = ("a", "b")
    __slots__ = FIELDS


def _pairs(a, b) -> _Pairs:
    return _Pairs(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))


def test_rows_take_concat_replace_and_empty():
    rows = _pairs([1, 2, 3, 4], [10, 20, 30, 40])
    assert rows.size == 4
    by_mask = rows.take(rows.a % 2 == 0)
    assert (by_mask.a.tolist(), by_mask.b.tolist()) == ([2, 4], [20, 40])
    by_index = rows.take(np.array([3, 0]))
    assert (by_index.a.tolist(), by_index.b.tolist()) == ([4, 1], [40, 10])
    joined = _Pairs.concat([by_mask, _Pairs.empty(), by_index])
    assert isinstance(joined, _Pairs)
    assert (joined.a.tolist(), joined.b.tolist()) == ([2, 4, 4, 1], [20, 40, 40, 10])
    assert _Pairs.concat([]).size == _Pairs.empty().size == 0
    swapped = rows.replace(b=rows.a)
    assert swapped.b.tolist() == [1, 2, 3, 4] and rows.b.tolist() == [10, 20, 30, 40]


def test_rows_reject_misaligned_columns():
    with pytest.raises(ValueError, match="_Pairs.b"):
        _pairs([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="takes 2 columns"):
        _Pairs(np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="int64"):
        _Pairs(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int32))
    with pytest.raises(ValueError, match="_Pairs.b"):
        _pairs([1, 2], [1, 2]).replace(a=np.zeros(3, dtype=np.int64))


def test_rows_to_host_is_one_transfer_per_column_on_a_device():
    host = get_backend("numpy")
    rows = _pairs([1, 2], [3, 4])
    assert rows.to_host(host) is rows
    mock = get_backend("mockgpu")
    dev = _Pairs(mock.from_host(rows.a), mock.from_host(rows.b))
    before = mock.transfer_stats().d2h_count
    back = dev.to_host(mock)
    assert mock.transfer_stats().d2h_count == before + 2
    assert not mock.is_device_array(back.a)
    assert (back.a.tolist(), back.b.tolist()) == ([1, 2], [3, 4])


def test_insert_rows_install_in_admission_order():
    """One definition of insert order for the write-back: by lane
    (admission order), then by emission within the lane — not by the
    order the rows were buffered in."""
    from repro.txn.batch_context import InsertRows

    def col(*values):
        return np.array(values, dtype=np.int64)

    # buffered out of lane order, lane 2's two inserts out of emission
    # order
    inserts = InsertRows(
        col(2, 0, 1, 2, 0), col(1, 0, 0, 0, 1), col(5, 5, 5, 5, 5),
        col(121, 100, 110, 120, 101), col(0, 0, 0, 0, 0), col(0, 1, 2, 3, 4),
    )
    commit = np.array([True, True, True])
    order = inserts.install_order(commit)
    assert inserts.key[order].tolist() == [100, 101, 110, 120, 121]
    commit[0] = False
    order = inserts.install_order(commit)
    assert inserts.key[order].tolist() == [110, 120, 121]


# ---------------------------------------------------------------------------
# Scatter primitives
# ---------------------------------------------------------------------------
def test_scatter_disjoint_assignment():
    for name in ("numpy", "mockgpu"):
        xp = get_backend(name)
        target = xp.from_host(np.zeros(6, dtype=np.int64))
        xp.scatter(
            target,
            xp.from_host(np.array([4, 1, 2], dtype=np.int64)),
            xp.from_host(np.array([40, 10, 20], dtype=np.int64)),
        )
        np.testing.assert_array_equal(xp.to_host(target), [0, 10, 20, 0, 40, 0])


def test_scatter_add_applies_every_duplicate():
    # np.add.at semantics, not buffered fancy assignment: both updates
    # to index 2 must land
    for name in ("numpy", "mockgpu"):
        xp = get_backend(name)
        target = xp.from_host(np.zeros(4, dtype=np.int64))
        xp.scatter_add(
            target,
            xp.from_host(np.array([2, 2, 0], dtype=np.int64)),
            xp.from_host(np.array([5, 7, 1], dtype=np.int64)),
        )
        np.testing.assert_array_equal(xp.to_host(target), [1, 0, 12, 0])


def test_mockgpu_scatter_into_host_array_raises_in_phase():
    xp = get_backend("mockgpu")
    host_target = np.zeros(4, dtype=np.int64)  # never shipped to device
    idx = xp.from_host(np.array([1], dtype=np.int64))
    val = xp.from_host(np.array([5], dtype=np.int64))
    with xp.kernel_phase("writeback"):
        with pytest.raises(BackendContractError, match="host array"):
            xp.scatter_add(host_target, idx, val)
    # outside a phase the same call is legal (eager host-side apply)
    xp.scatter_add(host_target, idx, val)
    assert host_target[1] == 5


# ---------------------------------------------------------------------------
# Transfer-ledger accounting
# ---------------------------------------------------------------------------
def test_ledger_counts_bytes_both_directions():
    xp = get_backend("mockgpu")
    host = np.arange(100, dtype=np.int64)  # 800 bytes
    dev = xp.from_host(host)
    t = xp.transfer_stats()
    assert (t.h2d_count, t.h2d_bytes) == (1, 800)
    back = xp.to_host(dev)
    assert (t.d2h_count, t.d2h_bytes) == (1, 800)
    np.testing.assert_array_equal(back, host)
    assert not isinstance(back, xp.DeviceArray)  # plain ndarray on host
    assert xp.item(dev[:1]) == 0
    assert t.d2h_bytes == 808  # one 8-byte word read back
    xp.tolist(dev)
    assert t.d2h_bytes == 1608
    assert t.count == t.h2d_count + t.d2h_count == 4
    snap = t.snapshot()
    assert snap["count"] == 4 and snap["implicit_syncs"] == 0
    xp.reset_transfers()
    assert xp.transfer_stats().count == 0


def test_device_arrays_do_not_alias_host_memory():
    # a host read that skipped a fence must be able to go stale
    xp = get_backend("mockgpu")
    host = np.arange(4, dtype=np.int64)
    dev = xp.from_host(host)
    xp.scatter(dev, xp.from_host(np.array([0])), xp.from_host(np.array([9])))
    assert host[0] == 0 and xp.to_host(dev)[0] == 9
    host[1] = 7
    assert xp.to_host(dev)[1] == 1


def test_from_host_of_device_array_is_free():
    xp = get_backend("mockgpu")
    dev = xp.from_host(np.arange(4, dtype=np.int64))
    assert xp.from_host(dev) is dev
    assert xp.transfer_stats().h2d_count == 1  # only the first shipped


# ---------------------------------------------------------------------------
# Kernel-phase contract: implicit syncs, scalar readbacks
# ---------------------------------------------------------------------------
def test_implicit_round_trips_raise_inside_phase():
    xp = get_backend("mockgpu")
    dev = xp.from_host(np.arange(4, dtype=np.int64))
    one = xp.from_host(np.array([3], dtype=np.int64))
    cases = {
        "int": lambda: int(one),
        "bool": lambda: bool(one),
        "iter": lambda: list(dev),
        "tolist": lambda: dev.tolist(),
        "item": lambda: one.item(),
        "scalar-index": lambda: dev[0],
    }
    for what, trip in cases.items():
        with xp.kernel_phase("execute"):
            with pytest.raises(BackendContractError, match="implicit"):
                trip()
        assert xp.phase is None  # phase closed despite the raise


def test_scalar_reduction_is_a_counted_readback_not_a_violation():
    xp = get_backend("mockgpu")
    dev = xp.from_host(np.arange(10, dtype=np.int64))
    t = xp.transfer_stats()
    d2h0 = t.d2h_count
    with xp.kernel_phase("execute"):
        total = dev.sum()  # device reduce + one-word readback
        flag = dev.any()
    assert total == 45 and not isinstance(total, np.ndarray)
    assert flag is True or flag == True  # noqa: E712 - np.bool_ tolerated
    assert t.d2h_count == d2h0 + 2
    assert t.implicit_syncs == 0
    # axis-wise reductions stay on the device and cost nothing
    mat = xp.from_host(np.ones((3, 4), dtype=np.int64))
    with xp.kernel_phase("execute"):
        per_row = mat.sum(axis=1)
    assert isinstance(per_row, xp.DeviceArray)
    assert t.d2h_count == d2h0 + 2


def test_eager_access_between_phases_counts_as_traffic():
    xp = get_backend("mockgpu")
    dev = xp.from_host(np.arange(4, dtype=np.int64))
    t = xp.transfer_stats()
    d2h0 = t.d2h_count
    assert dev.tolist() == [0, 1, 2, 3]  # legal outside phases...
    assert t.d2h_count == d2h0 + 1  # ...but it is accounted
    assert t.implicit_syncs == 0
    assert ("d2h", "eager:tolist") in t.events


def test_non_strict_mode_counts_violations_instead_of_raising():
    xp = MockGpuBackend(strict=False)
    one = xp.from_host(np.array([7], dtype=np.int64))
    with xp.kernel_phase("conflict"):
        assert int(one) == 7
    t = xp.transfer_stats()
    assert t.implicit_syncs == 1
    assert ("implicit", "conflict:int") in t.events


# ---------------------------------------------------------------------------
# Dtype discipline: float upcasts are contract violations
# ---------------------------------------------------------------------------
def test_float_result_raises_in_strict_mode():
    xp = get_backend("mockgpu")
    with pytest.raises(BackendContractError, match="int64-disciplined"):
        xp.from_host(np.array([0.5, 1.5]))  # unpinned float input
    with pytest.raises(BackendContractError, match="astype"):
        xp.astype(xp.from_host(np.arange(3, dtype=np.int64)), np.float64)


def test_float_result_recorded_in_non_strict_mode():
    xp = MockGpuBackend(strict=False)
    xp.astype(xp.from_host(np.arange(3, dtype=np.int64)), np.float64)
    assert ("astype", "float64") in xp.upcasts


def test_float_operator_result_raises_only_inside_a_kernel_phase():
    xp = get_backend("mockgpu")
    a = xp.from_host(np.arange(4, dtype=np.int64))
    assert (a / 2).dtype == np.float64  # between phases: host-side math
    with xp.kernel_phase("execute"):
        assert xp.is_device_array(a + 1) and xp.is_device_array(a // 2)
        with pytest.raises(BackendContractError, match="operator produced float64"):
            a / 1
        with pytest.raises(BackendContractError, match="operator produced"):
            np.add(a, 0.5)


def test_int64_pipeline_records_no_upcasts():
    xp = get_backend("mockgpu")
    a = xp.from_host(np.arange(16, dtype=np.int64))
    with xp.kernel_phase("execute"):
        order = xp.argsort(a * 3 % 7, stable=True)
        xp.cumsum(a[order])
    assert xp.upcasts == []


# ---------------------------------------------------------------------------
# Simulated dispatch ordering
# ---------------------------------------------------------------------------
def test_dispatch_events_record_issue_order_and_phase_sync():
    xp = get_backend("mockgpu")
    with xp.kernel_phase("execute"):
        assert xp.phase == "execute"
        xp.arange(4, dtype=np.int64)
        xp.cumsum(xp.from_host(np.arange(4, dtype=np.int64)))
    events = xp.transfer_stats().events
    begin = events.index(("phase", "begin:execute"))
    d1 = events.index(("dispatch", "execute:arange"))
    d2 = events.index(("dispatch", "execute:cumsum"))
    end = events.index(("phase", "end:execute"))
    sync = events.index(("sync", "execute"))
    # kernels issue in program order inside the phase; the sync point
    # (the engine's phase boundary) lands after every dispatch
    assert begin < d1 < d2 < end < sync
    assert xp.transfer_stats().dispatches == 2


def test_nested_kernel_phases_fold_into_the_outer_region():
    xp = get_backend("mockgpu")
    with xp.kernel_phase("execute"):
        with xp.kernel_phase("inner"):
            assert xp.phase == "execute"  # inner region is transparent
        assert xp.phase == "execute"  # and does not close the outer one
    assert xp.phase is None
    kinds = [e for e in xp.transfer_stats().events if e[0] == "phase"]
    assert kinds == [("phase", "begin:execute"), ("phase", "end:execute")]


# ---------------------------------------------------------------------------
# The exported BackendContract: one source of truth for every backend
# ---------------------------------------------------------------------------
def test_contract_surface_is_implemented_by_backends():
    from repro.xp import CONTRACT

    for name in ("numpy", "mockgpu"):
        backend = get_backend(name)
        for method in sorted(CONTRACT.all_methods()):
            assert callable(getattr(backend, method)), (
                f"{name} backend missing contract method {method!r}"
            )


def test_contract_groups_are_consistent():
    from repro.xp import CONTRACT

    kernels = set(CONTRACT.kernels)
    assert set(CONTRACT.commutative_scatters) <= kernels
    assert set(CONTRACT.assign_scatters) <= kernels
    assert not (set(CONTRACT.crossings) & kernels)
    assert CONTRACT.dtype == "int64"


def test_mockgpu_scalar_readbacks_come_from_contract():
    # every contract readback is a sanctioned one-word D2H on a device
    # array: legal inside a kernel phase, and accounted on the ledger
    from repro.xp import CONTRACT

    xp = get_backend("mockgpu")
    arr = xp.from_host(np.arange(8, dtype=np.int64))
    xp.reset_transfers()
    with xp.kernel_phase("execute"):
        for i, name in enumerate(CONTRACT.scalar_readbacks):
            assert hasattr(arr, name), f"DeviceArray missing {name!r}"
            getattr(arr, name)()
            assert xp.transfer_stats().d2h_count == i + 1
    assert xp.transfer_stats().implicit_syncs == 0
