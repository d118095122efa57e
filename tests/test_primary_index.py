"""The primary index: open addressing over two int64 arrays, checked
against a ``dict`` model, and its probe lengths on adversarial keys."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKey, KeyNotFound
from repro.storage import PrimaryIndex
from repro.storage.index import _home

INT64 = st.integers(-(2**63), 2**63 - 1)
KEYS = st.one_of(
    st.integers(-64, 64),
    st.integers(0, 400).map(lambda i: i << 20),
    INT64,
)
STEPS = st.lists(
    st.tuples(
        st.sampled_from(("bulk", "insert", "probe", "copy")),
        st.lists(KEYS, max_size=60),
    ),
    max_size=14,
)


def _agrees(
    index: PrimaryIndex, model: dict[int, int], probes, prefix: int = 0
) -> None:
    """Every read path of ``index`` answers ``probes`` as ``model`` does;
    the ``prefix`` keys ``0..prefix-1`` hold no entry."""
    probes = list(probes)
    got = index.rows_of(np.array(probes, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [model.get(k, -1) for k in probes]
    for k in probes:
        assert index.get(k) == model.get(k)
        if k in model:
            assert index.lookup(k) == model[k]
        else:
            with pytest.raises(KeyNotFound):
                index.lookup(k)
    assert len(index) == len(model) - prefix


@settings(max_examples=150, deadline=None)
@given(STEPS, st.sampled_from((0, 0, 1, 17, 64)))
def test_index_matches_a_dict_model(steps, prefix):
    """Bulk and scalar inserts, bulk and scalar probes, growth through
    several doublings (up to ~800 keys from 16 slots) and copies taken
    along the way, which later inserts must not reach — after a load
    of ``0..prefix-1`` (the dense prefix, whose keys are their own rows
    and refuse a second insert), probed on both sides of it."""
    index, model = PrimaryIndex(), {}
    if prefix:
        index.load(np.arange(prefix, dtype=np.int64))
        model = {k: k for k in range(prefix)}
    copies = []
    for op, keys in steps:
        if op == "bulk":
            new = [k for k in dict.fromkeys(keys) if k not in model]
            rows = np.arange(len(model), len(model) + len(new), dtype=np.int64)
            index.bulk_insert(np.array(new, dtype=np.int64), rows)
            model.update(zip(new, rows.tolist()))
        elif op == "insert":
            for k in keys:
                if k in model:
                    with pytest.raises(DuplicateKey):
                        index.insert(k, len(model))
                else:
                    index.insert(k, len(model))
                    model[k] = len(model)
        elif op == "probe":
            _agrees(index, model, keys, prefix)
        else:
            copies.append((index.copy(), dict(model)))
    edges = [-1, 0, prefix - 1, prefix, prefix + 1, -(2**63)]
    _agrees(index, model, [*model, *edges], prefix)
    for clone, seen in copies:
        _agrees(clone, seen, [*model, *edges], prefix)


@pytest.mark.parametrize(
    "keys, entries",
    [([0, 1, 2, 3], 0), ([0, 2, 1, 3], 4), ([1, 2, 3], 3), ([0, 2, 3], 3)],
    ids=["dense", "unordered", "offset", "gap"],
)
def test_load_takes_a_dense_prefix_or_unique_keys(keys, entries):
    """Exactly ``0..n-1`` loads as a prefix with no entries; any other
    set is indexed key by key, its rows the load positions."""
    index = PrimaryIndex()
    index.load(np.array(keys, dtype=np.int64))
    assert len(index) == entries
    rows = list(range(len(keys)))
    assert index.rows_of(np.array(keys, dtype=np.int64)).tolist() == rows
    assert [index.get(k) for k in keys] == rows
    assert index.get(4) is None and index.get(-1) is None


def test_growth_doubles_and_keeps_every_entry():
    """Scalar and bulk inserts interleaved across ten doublings."""
    index = PrimaryIndex()
    keys = np.arange(20_000, dtype=np.int64) * 7919 - 10**6
    for lo in range(0, keys.size, 2_000):
        chunk = keys[lo:lo + 1_000]
        index.bulk_insert(chunk, np.arange(lo, lo + chunk.size, dtype=np.int64))
        for j in range(lo + 1_000, lo + 2_000):
            index.insert(int(keys[j]), j)
        capacity = index._rows.size
        assert capacity >= 2 * len(index) and capacity & (capacity - 1) == 0
    assert len(index) == keys.size
    assert (index.rows_of(keys) == np.arange(keys.size)).all()
    assert (index.rows_of(keys + 1) == -1).all()


def _longest_cluster(index: PrimaryIndex) -> int:
    """The longest run of occupied slots, wrapping around: no probe —
    a hit or a miss — takes more rounds than this plus one."""
    occupied = index._rows >= 0
    occupied = np.roll(occupied, -int(np.flatnonzero(~occupied)[0]))
    edges = np.flatnonzero(np.diff(np.concatenate(([0], occupied.view(np.int8), [0]))))
    return int((edges[1::2] - edges[::2]).max(initial=0))


def _home_distance(index: PrimaryIndex) -> int:
    """The most slots any entry sits past its home slot: a probe for a
    present key takes this many rounds plus one."""
    slots = np.flatnonzero(index._rows >= 0)
    home = _home(index._keys[slots], index._bits, index._mask)
    return int(((slots - home) & index._mask).max(initial=0))


@pytest.mark.parametrize(
    "pattern",
    [
        lambda i: i << 20,
        lambda i: (3 * i) << 21,
        lambda i: -(i << 20),
        lambda i: 1_000_000 * 16 + (i // 10) * 16 + i % 10,  # order_line
        lambda i: -i - 1,
    ],
    ids=["i<<20", "3i<<21", "-(i<<20)", "order-line", "negatives"],
)
@pytest.mark.parametrize("n", [3_000, 40_000])
def test_adversarial_keys_probe_in_few_rounds(pattern, n):
    """Keys that differ only in high bits must not pile onto one slot
    (``key & mask`` puts every ``i << 20`` on slot 0), and a run of
    consecutive keys takes consecutive slots: the present keys sit
    fewer than 64 slots from home (``key & mask`` would put the 3,000th
    ``i << 20`` 2,999 past it), and the pattern's next keys — what a
    table that grows by this pattern probes before it claims them —
    stop at once (a key claimed ``d`` slots past home found those ``d``
    slots taken, so its probe before the claim took at most ``d + 1``
    rounds).  ±(2**63 - 1) and -2**63 ride along."""
    extremes = np.array([2**63 - 1, -(2**63 - 1), -(2**63)], dtype=np.int64)
    i = np.arange(n, dtype=np.int64)
    keys = np.concatenate((pattern(i), extremes))
    index = PrimaryIndex()
    index.bulk_insert(keys, np.arange(keys.size, dtype=np.int64))
    assert (index.rows_of(keys) == np.arange(keys.size)).all()
    assert _home_distance(index) < 64
    nxt = pattern(np.arange(n, 2 * n, dtype=np.int64))
    assert (index.rows_of(nxt) == -1).all()
    index.bulk_insert(nxt, np.arange(keys.size, keys.size + n, dtype=np.int64))
    assert _home_distance(index) < 64
    assert (index.rows_of(keys) == np.arange(keys.size)).all()
    if abs(int(pattern(1)) - int(pattern(0))) > 1:
        # keys with gaps: no long run of taken slots for a stray key
        # to walk either
        assert _longest_cluster(index) < 64
