"""The analysis catch table, executable.

The study behind docs/ARCHITECTURE.md §11 seeded one mutant per rule of
the deleted analysis passes (kernellint, racecheck, memcheck) and
recorded which surviving oracle catches it.  Every mutant that changes
something observable on a supported backend — a digest, the commit set,
the transfer ledger, or a raise — is a row here: the mutant is applied
and the named oracle must catch it.  Mutants that change none of those
(``np.add(v, 0)`` in a twin, set-ordered emission, a dropped write-side
WAW flag, ...) have nothing to catch and are recorded only with the
study, in CHANGES.md.

No source is copied: a twin mutant runs the real twin against a proxy of
its own ``bctx`` that drops or alters one call, and a stage mutant wraps
the real stage function.  Every oracle is also run with no mutant, so a
catch is never an oracle that fails on its own.
"""

from __future__ import annotations

import functools

import pytest

import repro.workloads.smallbank as smallbank
import repro.workloads.tpcc.batched as tpcc_batched
from helpers import check_cell, small_tpcc
from repro.analysis.workload import WorkloadSetup, build_workload
from repro.core.conflict import detect
from repro.core.conflict_log import ConflictLog
from repro.core.engine import LTPGEngine
from repro.txn import assign_tids
from repro.validate import replay_in_witness_order
from test_driver_goldens import GOLDEN as DRIVER_GOLDEN
from test_driver_goldens import _trace_cli
from test_overlay_goldens import LEDGER, _take_ledger, _trace_and_metrics

LANES = 256


class _Proxy:
    """``target`` with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


# -- mutants ------------------------------------------------------------------
def _twin(module, name, **overrides):
    """Run the real ``module.<name>`` twin against a proxy of its
    ``bctx``; each override is called with the real ``bctx`` first."""
    real = getattr(module, name)

    def mutated(*args):
        *bound, bctx, params = args
        proxy = _Proxy(
            bctx, **{k: functools.partial(f, bctx) for k, f in overrides.items()}
        )
        return real(*bound, proxy, params)

    return lambda monkeypatch: monkeypatch.setattr(module, name, mutated)


def _read_then(fn):
    """A ``read_rows`` override: the real read, then ``fn`` on its value."""
    return lambda bctx, *args: fn(bctx.read_rows(*args))


def _iterate(values):
    [0 for _ in values]
    return values


def _truth_test(values):
    if values.size and bool(values[0] > -1):
        pass
    return values


def _host_sum(values):
    sum(values)
    return values


def _true_division(values):
    return values / 1


def _skip_column(method, column):
    """Drop every ``method`` call on ``column``."""
    return lambda bctx, table, lanes, rows, col, *rest: (
        None if col == column else getattr(bctx, method)(table, lanes, rows, col, *rest)
    )


def _host_table_read(bctx, table, lanes, rows, column):
    # the host-side Table API: no read op, and the host mirror's value
    return bctx._db.table(table).column(column)[rows]


def _read_and_write_back(bctx, table, lanes, rows, column):
    values = bctx.read_rows(table, lanes, rows, column)
    if column == "checking":
        bctx.write(table, lanes, rows, column, values)
    return values


def _host_loop_over_lanes(bctx):
    lanes = bctx.all_lanes()
    for _ in bctx.xp.tolist(lanes):  # an explicit D2H, then a host loop
        pass
    return lanes


def _commit_every_lane(monkeypatch):
    def conflict(engine, batch, ctx):
        detect(engine, batch, ctx)
        batch.commit = ~batch.logic_mask

    stages = tuple(
        s._replace(run=conflict) if s.name == "conflict" else s
        for s in LTPGEngine.STAGES
    )
    monkeypatch.setattr(LTPGEngine, "STAGES", stages)


def _plain_writes_to_a_delayed_column(monkeypatch):
    # SmallBank's ``checking`` delayed-update managed while three
    # procedures still write it plainly: the one way a committed plain
    # write and a delayed (atomic) add can meet on one cell
    real = WorkloadSetup.engine
    delayed = frozenset({("smallbank", "checking")})
    monkeypatch.setattr(
        WorkloadSetup, "engine",
        lambda self, *args, **kw: real(self, *args, delayed_columns=delayed, **kw),
    )


def _negative_conflict_keys(monkeypatch):
    real = ConflictLog.encode

    def encode(self, table_ids, rows, groups):
        return real(self, table_ids, rows, groups) - self._base[-1]

    monkeypatch.setattr(ConflictLog, "encode", encode)


def _assignment_segment_sums(monkeypatch):
    real = tpcc_batched._segment_sums
    monkeypatch.setattr(
        tpcc_batched, "_segment_sums",
        lambda xp, counts, values: real(
            _Proxy(xp, scatter_add=xp.scatter), counts, values
        ),
    )


# -- oracles: each returns what caught the run, or None ------------------------
def _caught(fn, *args):
    def oracle():
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 (a raise is a catch)
            return f"{fn.__name__.strip('_')} raises {type(exc).__name__}: {exc}"

    return oracle


def _setup(workload):
    if workload == "tpcc-full-mix":
        db, registry, _, gen = small_tpcc()
        return db, registry, gen, LTPGEngine(db, registry)
    setup = build_workload(workload, seed=12)
    return setup.database, setup.registry, setup.generator, setup.engine(LANES)


def _serial_replay(workload, batches=1):
    """``python -m repro.validate``'s check: each batch replayed serially
    in the engine's witness order (``serial_order()`` raises on two
    committed writers of one key)."""
    db, registry, gen, engine = _setup(workload)
    next_tid = 0
    for _ in range(batches):
        before = db.copy()
        batch = gen.make_batch(LANES)
        next_tid = assign_tids(batch, next_tid)
        replay_in_witness_order(before, registry, engine.run_batch(batch))
        if before.state_digest() != db.state_digest():
            return "serial replay: digest differs"
    return None


def _lattice(workload):
    """The conformance lattice's ``workload@256x2/default/direct`` cell
    against the oracle (uncached: the mutant is live).  The oracle's
    observation is cached, so a row here must mutate only what
    ``ReferenceEngine`` does not run (a twin)."""
    check_cell.__wrapped__(workload + "@256x2", "default", "direct")


def _mockgpu(workload):
    """One batch on mockgpu (strict kernel phases) against numpy."""
    seen = []
    for backend in ("numpy", "mockgpu"):
        setup = build_workload(workload)
        batch = setup.generator.make_batch(LANES)
        assign_tids(batch, 0)
        with setup.engine(LANES, array_backend=backend) as engine:
            engine.run_batch(batch)
        seen.append(([t.status for t in batch], setup.database.state_digest()))
    return "mockgpu: differs from numpy" if seen[0] != seen[1] else None


def _ledger():
    """The mockgpu cell's transfer ledger (``test_overlay_goldens.LEDGER``)."""
    trace, metrics = _trace_and_metrics("mockgpu-resident")
    if _take_ledger(trace, metrics) != LEDGER["mockgpu-resident"]:
        return "ledger differs"
    return None


def _driver_golden():
    """The traced SmallBank run the driver goldens pin."""
    if _trace_cli() != DRIVER_GOLDEN[_trace_cli]:
        return "driver golden differs"
    return None


ORACLES = {
    "replay-tpcc": _caught(_serial_replay, "tpcc"),
    "replay-smallbank": _caught(_serial_replay, "smallbank"),
    # deliveries need orders a NewOrder batch placed first
    "replay-tpcc-full-mix": _caught(_serial_replay, "tpcc-full-mix", 3),
    "lattice-smallbank": _caught(_lattice, "smallbank"),
    "mockgpu-smallbank": _caught(_mockgpu, "smallbank"),
    "ledger": _caught(_ledger),
    "driver-golden": _caught(_driver_golden),
}

#: rule -> (mutant, oracle, what the oracle must report)
ROWS = {
    "racecheck-write-write": (
        _commit_every_lane, "replay-tpcc", "WAW rule violated",
    ),
    "racecheck-atomic-plain": (
        _plain_writes_to_a_delayed_column, "replay-smallbank",
        "is delayed-update managed",
    ),
    "memcheck-negative-key": (
        _negative_conflict_keys, "ledger", "within the batch's key space",
    ),
    "KL101-iterate": (
        _twin(smallbank, "_transact_savings_b", read_rows=_read_then(_iterate)),
        "mockgpu-smallbank", "implicit host round-trip (iter)",
    ),
    "KL101-truth-test": (
        _twin(smallbank, "_transact_savings_b", read_rows=_read_then(_truth_test)),
        "mockgpu-smallbank", "implicit host round-trip (scalar-index)",
    ),
    "KL103-true-division": (
        _twin(smallbank, "_transact_savings_b", read_rows=_read_then(_true_division)),
        "mockgpu-smallbank", "operator produced float64",
    ),
    "KL105-host-loop": (
        _twin(tpcc_batched, "_payment_b", all_lanes=_host_loop_over_lanes),
        "ledger", "ledger differs",
    ),
    "KL106-host-table-read": (
        _twin(smallbank, "_transact_savings_b", read_rows=_host_table_read),
        "lattice-smallbank", "lattice",
    ),
    "KL201-host-sum": (
        _twin(smallbank, "_transact_savings_b", read_rows=_read_then(_host_sum)),
        "mockgpu-smallbank", "implicit host round-trip (iter)",
    ),
    "KL202-assignment-scatter": (
        _assignment_segment_sums, "replay-tpcc-full-mix", "digest differs",
    ),
    "KL401-missing-write": (
        _twin(smallbank, "_amalgamate_b", write=_skip_column("write", "savings")),
        "replay-smallbank", "digest differs",
    ),
    "KL402-missing-read": (
        _twin(smallbank, "_balance_b", read_rows=_skip_column("read_rows", "savings")),
        "driver-golden", "driver golden differs",
    ),
    "KL403-missing-abort": (
        _twin(smallbank, "_transact_savings_b", logic_abort=lambda bctx, lanes: None),
        "lattice-smallbank", "lattice",
    ),
    "KL404-missing-fallback": (
        _twin(tpcc_batched, "_neworder_b", fall_back=lambda bctx, lanes: None),
        "replay-tpcc", "digest differs",
    ),
    "KL405-extra-write": (
        _twin(smallbank, "_balance_b", read_rows=_read_and_write_back),
        "lattice-smallbank", "lattice",
    ),
}


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_is_clean_without_a_mutant(oracle):
    assert ORACLES[oracle]() is None


@pytest.mark.parametrize("row", ROWS)
def test_surviving_oracle_catches_the_mutant(row, monkeypatch):
    mutate, oracle, expected = ROWS[row]
    mutate(monkeypatch)
    verdict = ORACLES[oracle]()
    assert verdict is not None and expected in verdict, verdict
