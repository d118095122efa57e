"""Memcheck unit tests: the bounds check on sized shadow buffers.
(The engine-path case — the conflict log's minima buffers — is in
tests/test_analysis_engine.py.)"""

from __future__ import annotations

from repro.analysis import AccessKind, Sanitizer


def _kinds(san: Sanitizer) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in san.findings:
        counts[f.kind] = counts.get(f.kind, 0) + 1
    return counts


def test_out_of_bounds_read_reported():
    san = Sanitizer()
    san.register_buffer("buf", size=8)
    san.begin_kernel("k")
    san.record("buf", [9], 3, AccessKind.READ)
    san.end_kernel()
    f = san.findings[0]
    assert f.kind == "out-of-bounds" and f.pass_name == "memcheck"
    assert f.subject == "buf" and f.index == 9
    assert "thread 3" in f.message


def test_negative_index_reported():
    san = Sanitizer()
    san.register_buffer("buf", size=8)
    san.begin_kernel("k")
    san.record("buf", [-1], 0, AccessKind.WRITE)
    san.end_kernel()
    assert _kinds(san) == {"out-of-bounds": 1}


def test_oob_accesses_do_not_reach_the_race_log():
    """Two threads both writing out of bounds: memcheck reports them,
    racecheck stays silent (the access never lands)."""
    san = Sanitizer()
    san.register_buffer("buf", size=4)
    san.begin_kernel("k")
    san.record("buf", [100], 0, AccessKind.WRITE)
    san.record("buf", [100], 1, AccessKind.WRITE)
    san.end_kernel()
    assert _kinds(san) == {"out-of-bounds": 2}


def test_unbounded_buffers_skip_bounds_checks():
    san = Sanitizer()
    san.begin_kernel("k")
    san.record("auto", [10**12], 0, AccessKind.WRITE)
    san.end_kernel()
    assert san.clean


def test_register_buffer_grows_monotonically():
    san = Sanitizer()
    san.register_buffer("buf", size=4)
    san.register_buffer("buf", size=8)  # grows the bound
    san.register_buffer("buf", size=2)  # never shrinks it
    san.begin_kernel("k")
    san.record("buf", [7], 0, AccessKind.READ)  # inside the grown range
    san.record("buf", [8], 0, AccessKind.READ)  # one past it
    san.end_kernel()
    assert _kinds(san) == {"out-of-bounds": 1}
    assert san.findings[0].index == 8
