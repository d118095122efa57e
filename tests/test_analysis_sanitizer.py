"""Racecheck unit tests: shadow logging, sync points, race taxonomy,
plus Hypothesis properties (kernel-boundary-synced and all-atomic
patterns are clean; seeded racy kernels produce exactly the expected
finding).  The sync point is the kernel boundary — a device-wide
barrier: ``end_kernel`` / ``begin_kernel`` close one segment of the
scan and open the next."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AccessKind, Sanitizer
from repro.gpusim.device import Device


def _kinds(san: Sanitizer) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in san.findings:
        counts[f.kind] = counts.get(f.kind, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# taxonomy: what is (and is not) a race
# ---------------------------------------------------------------------------
def test_write_write_race_detected():
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("buf", [7], 0, AccessKind.WRITE)
    san.record("buf", [7], 1, AccessKind.WRITE)
    san.end_kernel()
    assert _kinds(san) == {"write-write": 1}
    f = san.findings[0]
    assert f.subject == "buf" and f.kernel == "k"
    assert f.index == 7 and f.threads == (0, 1)


def test_read_write_race_detected():
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("buf", [3], 0, AccessKind.READ)
    san.record("buf", [3], 1, AccessKind.WRITE)
    san.end_kernel()
    assert _kinds(san) == {"read-write": 1}
    assert set(san.findings[0].threads) == {0, 1}


def test_atomic_plain_mix_detected():
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("buf", [5], 0, AccessKind.WRITE, atomic=True)
    san.record("buf", [5], 1, AccessKind.WRITE)
    san.end_kernel()
    assert "atomic-plain" in _kinds(san)


def test_all_atomic_contention_is_clean():
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("buf", np.zeros(64, dtype=np.int64), np.arange(64),
               AccessKind.WRITE, atomic=True)
    san.end_kernel()
    assert san.clean


def test_same_thread_accesses_are_clean():
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("buf", [2], 9, AccessKind.READ)
    san.record("buf", [2], 9, AccessKind.WRITE)
    san.record("buf", [2], 9, AccessKind.WRITE)
    san.end_kernel()
    assert san.clean


def test_concurrent_reads_are_clean():
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("buf", np.zeros(32, dtype=np.int64), np.arange(32),
               AccessKind.READ)
    san.end_kernel()
    assert san.clean


# ---------------------------------------------------------------------------
# synchronization points
# ---------------------------------------------------------------------------
def test_kernel_boundary_separates_accesses():
    san = Sanitizer()
    san.begin_kernel("writer")
    san.record("buf", [1], 0, AccessKind.WRITE)
    san.end_kernel()
    san.begin_kernel("reader")
    san.record("buf", [1], 1, AccessKind.READ)
    san.end_kernel()
    assert san.clean
    assert san.kernels_scanned == 2


def test_barrier_separates_accesses():
    """Two writers of one address on either side of a kernel boundary
    never race."""
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("buf", [1], 0, AccessKind.WRITE)
    san.end_kernel()
    san.begin_kernel("k")
    san.record("buf", [1], 1, AccessKind.WRITE)
    san.end_kernel()
    assert san.clean
    assert san.kernels_scanned == 2


def test_race_within_barrier_segment_still_detected():
    """A boundary clears the segment before it, not the races inside the
    segment after it."""
    san = Sanitizer()
    san.begin_kernel("k1")
    san.record("buf", [1], 0, AccessKind.WRITE)
    san.end_kernel()
    san.begin_kernel("k2")
    san.record("buf", [1], 1, AccessKind.WRITE)
    san.record("buf", [1], 2, AccessKind.WRITE)
    san.end_kernel()
    assert _kinds(san) == {"write-write": 1}
    assert san.findings[0].threads == (1, 2)
    assert san.findings[0].kernel == "k2"


def test_finding_flood_is_suppressed():
    san = Sanitizer()
    san.begin_kernel("k")
    idx = np.repeat(np.arange(100, dtype=np.int64), 2)
    thr = np.tile(np.array([0, 1], dtype=np.int64), 100)
    san.record("buf", idx, thr, AccessKind.WRITE)
    san.end_kernel()
    assert len(san.findings) <= 20
    assert san.report.suppressed > 0


# ---------------------------------------------------------------------------
# device integration
# ---------------------------------------------------------------------------
def test_device_kernel_opens_sanitizer_epochs():
    device = Device()
    san = Sanitizer()
    device.attach_sanitizer(san)
    with device.kernel("touch", threads=4) as ctx:
        assert ctx.sanitizer is san
        san.record("scratch", [0], 0, AccessKind.WRITE)
    with device.kernel("touch2", threads=4):
        san.record("scratch", [0], 1, AccessKind.READ)
    assert san.clean  # separated by the kernel boundary
    assert san.kernels_scanned == 2


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 15)),  # (thread, index)
        min_size=1,
        max_size=64,
    ),
)
def test_barrier_synchronized_writes_never_race(writes):
    """Property: any write pattern is clean when a kernel boundary
    separates every pair of writes."""
    san = Sanitizer()
    for thread, index in writes:
        san.begin_kernel("k")
        san.record("buf", [index], thread, AccessKind.WRITE)
        san.end_kernel()
    assert san.clean
    assert san.kernels_scanned == len(writes)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 31),                  # thread
            st.integers(0, 15),                  # index
            st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
        ),
        max_size=64,
    )
)
def test_pure_atomic_patterns_never_race(ops):
    """Property: atomics-only traffic is always clean, whatever the
    thread/address interleaving."""
    san = Sanitizer()
    san.begin_kernel("k")
    for thread, index, kind in ops:
        san.record("buf", [index], thread, kind, atomic=True)
    san.end_kernel()
    assert san.clean


@settings(max_examples=40, deadline=None)
@given(
    t1=st.integers(0, 100),
    t2=st.integers(0, 100),
    index=st.integers(0, 1000),
    readers=st.lists(st.tuples(st.integers(101, 200), st.integers(1001, 2000)),
                     max_size=16),
)
def test_seeded_write_write_always_found(t1, t2, index, readers):
    """Property: two distinct-thread plain writes to one address are
    flagged exactly once as write-write, regardless of surrounding
    unrelated read traffic."""
    if t1 == t2:
        t2 = t1 + 1
    san = Sanitizer()
    san.begin_kernel("k")
    for thread, idx in readers:  # unrelated clean traffic
        san.record("noise", [idx], thread, AccessKind.READ)
    san.record("target", [index], t1, AccessKind.WRITE)
    san.record("target", [index], t2, AccessKind.WRITE)
    san.end_kernel()
    ww = [f for f in san.findings if f.kind == "write-write"]
    assert len(ww) == 1
    assert ww[0].subject == "target"
    assert set(ww[0].threads) == {min(t1, t2), max(t1, t2)}
    assert ww[0].index == index


def test_record_rejects_misaligned_threads():
    san = Sanitizer()
    with pytest.raises(ValueError):
        san.record("buf", [1, 2, 3], [0, 1], AccessKind.READ)
