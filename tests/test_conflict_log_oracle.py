"""Property tests: the conflict log against a brute-force dict oracle,
and bucket-geometry invariants."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConflictLog, FlagGroups, HotspotDetector, NO_TID
from repro.core.hotspot import bucket_size_for
from repro.errors import TransactionError
from repro.gpusim import DeviceConfig, KernelContext, LaunchGeometry
from repro.gpusim.atomics import collision_profile
from repro.storage import Database, make_schema


def make_log(rows: int, hot: bool):
    db = Database()
    t = db.create_table(make_schema("t", "id", "a"))
    t.bulk_load(np.arange(rows), {})
    log = ConflictLog(db, FlagGroups(db))
    txns = rows * 4 if hot else 1
    heats = HotspotDetector(db).measure({0: txns})
    log.begin_batch(heats)
    return log


@st.composite
def op_streams(draw):
    rows = draw(st.integers(2, 20))
    n = draw(st.integers(0, 60))
    ops = [
        (
            draw(st.integers(0, rows - 1)),          # row
            draw(st.integers(0, 100)),               # tid
            draw(st.booleans()),                     # is_write
        )
        for _ in range(n)
    ]
    return rows, ops


@given(op_streams(), st.booleans(), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_minima_match_dict_oracle(stream, hot, calls):
    """``calls`` registrations per side, each of a slice of the stream
    in its own key order: a second call merges into the first."""
    rows, ops = stream
    log = make_log(rows, hot)
    oracle_r: dict[int, int] = {}
    oracle_w: dict[int, int] = {}
    reads = [(r, t) for r, t, w in ops if not w]
    writes = [(r, t) for r, t, w in ops if w]
    for r, t in reads:
        oracle_r[r] = min(oracle_r.get(r, NO_TID), t)
    for r, t in writes:
        oracle_w[r] = min(oracle_w.get(r, NO_TID), t)

    def register(pairs, fn):
        for part in range(calls):
            # the log takes registrations grouped by key
            chunk = sorted(pairs[part::calls])
            if not chunk:
                continue
            rows_arr = np.array([p[0] for p in chunk], dtype=np.int64)
            tids = np.array([p[1] for p in chunk], dtype=np.int64)
            keys = log.encode(
                np.zeros(len(chunk), dtype=np.int64),
                rows_arr,
                np.zeros(len(chunk), dtype=np.int64),
            )
            fn(keys, tids, np.zeros(len(chunk), dtype=np.int64))

    register(reads, log.register_reads)
    register(writes, log.register_writes)

    all_rows = np.arange(rows, dtype=np.int64)
    keys = log.encode(
        np.zeros(rows, dtype=np.int64), all_rows, np.zeros(rows, dtype=np.int64)
    )
    got_r = log.min_read(keys)
    got_w = log.min_write(keys)
    for row in range(rows):
        assert got_r[row] == oracle_r.get(row, NO_TID)
        assert got_w[row] == oracle_w.get(row, NO_TID)

    # reset restores the sentinel everywhere
    log.end_batch()
    log.begin_batch(HotspotDetector(Database()).measure({}))  # no-op heats
    # note: begin_batch with fresh heats on the same log instance
    assert (log.min_read(keys) == NO_TID).all()
    assert (log.min_write(keys) == NO_TID).all()


@given(
    st.integers(1, 4096),          # registrations on one key
    st.integers(1, 64),            # bucket size
)
@settings(max_examples=60, deadline=None)
def test_bucket_size_divides_chain(count, s_u):
    """The TID mod s_u re-hash cuts the longest chain to ~count/s_u."""
    tids = np.arange(count, dtype=np.int64)
    slots = tids % s_u  # one hot key spread over s_u sub-slots
    _, _, chain = collision_profile(slots)
    assert chain == -(-count // s_u)  # ceil division


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
@settings(max_examples=60)
def test_bucket_size_formula_invariants(freq):
    s_u = bucket_size_for(freq)
    assert s_u >= 1
    if freq <= 1.0:
        assert s_u == 1
    else:
        assert s_u % 32 == 0
        assert s_u >= freq  # enough sub-slots for the measured frequency
        assert s_u < freq + 32


@given(op_streams())
@settings(max_examples=30, deadline=None)
def test_dynamic_buckets_never_lengthen_chains(stream):
    """Contention recorded with dynamic buckets is <= without, always."""
    rows, ops = stream
    writes = sorted((r, t) for r, t, w in ops if w)
    if not writes:
        return
    chains = {}
    for dynamic in (False, True):
        log = make_log(rows, hot=True)
        log.dynamic_buckets = dynamic
        ctx = KernelContext(
            "k", LaunchGeometry.for_threads(max(1, len(writes))), DeviceConfig()
        )
        rows_arr = np.array([p[0] for p in writes], dtype=np.int64)
        tids = np.array([p[1] for p in writes], dtype=np.int64)
        keys = log.encode(
            np.zeros(len(writes), dtype=np.int64),
            rows_arr,
            np.zeros(len(writes), dtype=np.int64),
        )
        log.register_writes(keys, tids, np.zeros(len(writes), dtype=np.int64), ctx)
        chains[dynamic] = ctx.stats.atomic_max_chain
    assert chains[True] <= chains[False]


@given(op_streams(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_collision_counts_match_collision_profile(stream, hot, dynamic):
    """What registration records — read off the key runs — is
    ``collision_profile`` over the bucket-slot addresses: the key on a
    standard table, ``key * s_u + TID mod s_u`` on a popular one."""
    rows, ops = stream
    pairs = sorted((r, t) for r, t, _ in ops)
    if not pairs:
        return
    log = make_log(rows, hot)
    log.dynamic_buckets = dynamic
    ctx = KernelContext("k", LaunchGeometry.for_threads(len(pairs)), DeviceConfig())
    zeros = np.zeros(len(pairs), dtype=np.int64)
    keys = log.encode(zeros, np.array([r for r, _ in pairs], dtype=np.int64), zeros)
    tids = np.array([t for _, t in pairs], dtype=np.int64)
    log.register_writes(keys, tids, zeros, ctx)
    s_u = log.bucket_size(0)
    assert (hot and dynamic) == (s_u > 1)
    assert (
        ctx.stats.atomic_ops, ctx.stats.atomic_serialized, ctx.stats.atomic_max_chain
    ) == collision_profile(keys * s_u + tids % s_u)


@pytest.mark.parametrize("keys", [[3, 1], [-1, 2], [2, 8]])
def test_registrations_out_of_key_order_or_space_are_refused(keys):
    log = make_log(8, hot=False)  # keys 0..7
    with pytest.raises(TransactionError, match="grouped by key"):
        log.register_reads(
            np.array(keys, dtype=np.int64), np.array([1, 2], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        )


def test_log_state_is_sized_by_the_batch_not_the_database():
    """A batch that registers 100 keys of a 10^6-row table allocates
    columns for those keys, not a minimum per row of the database."""
    rows = 1_000_000
    db = Database()
    db.create_table(make_schema("t", "id", "a")).bulk_load(np.arange(rows), {})
    log = ConflictLog(db, FlagGroups(db))
    heats = HotspotDetector(db).measure({0: 100})
    zeros = np.zeros(100, dtype=np.int64)
    tids = np.arange(100, dtype=np.int64)
    tracemalloc.start()
    try:
        log.begin_batch(heats)
        keys = log.encode(zeros, np.arange(0, rows, rows // 100), zeros)
        log.register_writes(keys, tids, zeros)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (log.min_write(keys) == tids).all()
