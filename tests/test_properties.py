"""Property-based tests (Hypothesis) on core data structures and the
engine's serializability/determinism invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_bank, txn
from repro.core import ConflictFlags, LTPGConfig, LTPGEngine, commit_mask, logical_order
from repro.gpusim.atomics import collision_profile
from repro.storage import Table, make_schema
from repro.txn import BatchScheduler, Transaction, TxnStatus
from repro.validate import replay_in_witness_order
from repro.workloads import ZipfGenerator


# ---------------------------------------------------------------------------
# collision_profile
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=200))
def test_collision_profile_matches_bruteforce(addresses):
    arr = np.asarray(addresses, dtype=np.int64)
    total, serialized, chain = collision_profile(arr)
    assert total == len(addresses)
    if addresses:
        counts = {}
        for a in addresses:
            counts[a] = counts.get(a, 0) + 1
        assert chain == max(counts.values())
        assert serialized == sum(c - 1 for c in counts.values())
    else:
        assert (serialized, chain) == (0, 0)


# ---------------------------------------------------------------------------
# commit rule
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
        min_size=1,
        max_size=64,
    ),
    st.booleans(),
)
def test_commit_mask_invariants(flag_rows, reorder):
    waw = np.array([r[0] for r in flag_rows])
    raw = np.array([r[1] for r in flag_rows])
    war = np.array([r[2] for r in flag_rows])
    mask = commit_mask(ConflictFlags(waw, raw, war), reorder)
    for i in range(len(flag_rows)):
        if waw[i]:
            assert not mask[i], "WAW must always abort"
        if not waw[i] and not raw[i] and not war[i]:
            assert mask[i], "conflict-free must always commit"
        if mask[i] and not reorder:
            assert not raw[i], "without reordering RAW must abort"
        if mask[i] and reorder:
            assert not (raw[i] and war[i]), "RAW+WAR must abort"
    # reordering only ever commits MORE transactions
    strict = commit_mask(ConflictFlags(waw, raw, war), False)
    relaxed = commit_mask(ConflictFlags(waw, raw, war), True)
    assert (relaxed | ~strict).all()


# ---------------------------------------------------------------------------
# logical order witness
# ---------------------------------------------------------------------------
@st.composite
def committed_sets(draw):
    """Random (tid, reads, writes) lists with unique writers per key."""
    n = draw(st.integers(1, 12))
    keys = list(range(draw(st.integers(1, 8))))
    used_writers: dict[int, int] = {}
    out = []
    for tid in range(n):
        reads = set(draw(st.lists(st.sampled_from(keys), max_size=4)))
        writes = set()
        for k in draw(st.lists(st.sampled_from(keys), max_size=2)):
            if k not in used_writers:
                used_writers[k] = tid
                writes.add(k)
        out.append((tid, reads - writes, writes))
    return out


@given(committed_sets())
def test_logical_order_places_readers_before_writers(committed):
    try:
        order = logical_order(committed)
    except ValueError:
        # a genuine cycle: only possible if the commit rule was violated
        # by construction; the generator can produce reader/writer knots
        # equivalent to RAW+WAR, which the engine would have aborted.
        return
    position = {tid: i for i, tid in enumerate(order)}
    writer_of = {}
    for tid, _, writes in committed:
        for k in writes:
            writer_of[k] = tid
    for tid, reads, _ in committed:
        for k in reads:
            w = writer_of.get(k)
            if w is not None and w != tid:
                assert position[tid] < position[w]


# ---------------------------------------------------------------------------
# Zipf generator
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=500),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=25)
def test_zipf_samples_in_domain(n, alpha):
    z = ZipfGenerator(n, alpha)
    sample = z.sample(np.random.default_rng(0), 64)
    assert sample.min() >= 0
    assert sample.max() < n


# ---------------------------------------------------------------------------
# Table model check
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(-100, 100)),
        max_size=40,
    )
)
def test_table_against_dict_model(entries):
    table = Table(make_schema("t", "id", "v"), capacity=2)
    model: dict[int, int] = {}
    for key, value in entries:
        if key in model:
            table.write(table.lookup(key), "v", value)
        else:
            table.insert(key, {"v": value})
        model[key] = value
    for key, value in model.items():
        assert table.read(table.lookup(key), "v") == value
    assert table.num_rows == len(model)


# ---------------------------------------------------------------------------
# Scheduler conservation
# ---------------------------------------------------------------------------
@given(st.integers(1, 16), st.integers(1, 40), st.integers(1, 3))
@settings(max_examples=30)
def test_scheduler_never_loses_transactions(batch_size, n, delay):
    scheduler = BatchScheduler(batch_size)
    scheduler.admit([txn("p") for _ in range(n)])
    seen: list[int] = []
    retried: set[int] = set()
    guard = 0
    while scheduler.has_work() and guard < 200:
        batch = scheduler.next_batch()
        seen.extend(t.tid for t in batch)
        # every lane's first attempt aborts and retries ``delay`` later
        scheduler.requeue_aborted([t for t in batch if t.tid not in retried], delay)
        retried.update(t.tid for t in batch)
        guard += 1
    assert sorted(seen) == sorted(2 * list(range(n)))


# ---------------------------------------------------------------------------
# Engine: determinism + serializability on random bank batches
# ---------------------------------------------------------------------------
@st.composite
def bank_batches(draw):
    n = draw(st.integers(1, 24))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["transfer", "deposit", "audit"]))
        a = draw(st.integers(0, 15))
        b = draw(st.integers(0, 15))
        if kind == "transfer":
            ops.append(("transfer", (a, b if b != a else (a + 1) % 16, 1 + a % 5)))
        elif kind == "deposit":
            ops.append(("deposit", (a, 1 + b % 7)))
        else:
            ops.append(("audit", (a, b)))
    return ops


def _run_once(specs):
    db, registry = build_bank(accounts=16)
    engine = LTPGEngine(db, registry, LTPGConfig(batch_size=32))
    batch = [Transaction(name, params, tid=i) for i, (name, params) in enumerate(specs)]
    result = engine.run_batch(batch)
    return db, registry, batch, result


@given(bank_batches())
@settings(max_examples=40, deadline=None)
def test_engine_is_deterministic(specs):
    db1, _, batch1, _ = _run_once(specs)
    db2, _, batch2, _ = _run_once(specs)
    assert [t.status for t in batch1] == [t.status for t in batch2]
    assert db1.state_digest() == db2.state_digest()


@given(bank_batches())
@settings(max_examples=40, deadline=None)
def test_engine_commits_are_serializable(specs):
    db, registry, batch, result = _run_once(specs)
    reference, _ = build_bank(accounts=16)
    replay_in_witness_order(reference, registry, result)
    assert reference.state_digest() == db.state_digest()


@given(bank_batches())
@settings(max_examples=20, deadline=None)
def test_transfer_money_is_conserved(specs):
    db, _, batch, _ = _run_once(specs)
    table = db.table("accounts")
    total = sum(table.read(r, "balance") for r in range(table.num_rows))
    deposits = sum(
        t.params[1]
        for t in batch
        if t.procedure_name == "deposit" and t.status is TxnStatus.COMMITTED
    )
    assert total == 16 * 1000 + deposits
