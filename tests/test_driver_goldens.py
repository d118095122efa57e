"""What the batch-driving loops produce on the simulated clock, pinned.

Every harness, CLI and convenience method that admits transactions,
cuts batches, runs them and re-queues the aborts goes through
:func:`repro.txn.batch.drive`.  These are the numbers the hand-written
loops it replaced produced, recorded before they moved: exact floats
and ints, because the driver changes who writes the loop, not what the
loop does — a changed cell here is a changed admission order, TID or
retry delay, not a tolerance to widen.

Every paper experiment's smoke cells are pinned the same way, at the
scales the shape tests already run, so a change to how the harness
walks its cells must reproduce them bit for bit.
"""

from __future__ import annotations

import pytest

from helpers import build_bank, smoke, txn
from repro.analysis.workload import build_workload
from repro.baselines import AriaEngine
from repro.trace.cli import capture
from repro.txn import BatchScheduler


def _batches(run) -> list[tuple]:
    return [
        (b.batch_index, b.num_txns, b.committed, b.aborted, b.latency_ns)
        for b in run.batches
    ]


def _values(case: str) -> dict:
    """A smoke case's cells, each a tuple of its measured columns."""
    return {key: tuple(v.values()) for key, v in smoke(case).items()}


def _table2():
    """All nine systems: LTPG's steady state and the baselines'."""
    return {(s, pct, w): v["mtps"] for (pct, w, s), v in smoke("table2").items()}


def _table4():
    return {(s, w, b): v for (w, b, s), v in _values("table4").items()}


def _calibration():
    [((_, (pct, w, system)), v)] = smoke("calibration").items()
    return (f"TableII {pct}-{w} {system} (MTPS)", v["measured"], v["paper"])


def _fig6b():
    """The last step runs under the batch-to-batch pipeline."""
    return {step: v["mtps"] for (step,), v in smoke("fig6b").items()}


def _ablation(study: str, extra: str) -> dict:
    return {
        variant: (v["mtps"], v["commit_rate"], v[extra])
        for (s, variant), v in smoke("ablations").items()
        if s == study
    }


def _retry_delay():
    """Delay 2: retries that sit out a batch while fresh load tops up."""
    return _ablation("abort retry delay", "latency_us")


def _table3():
    return {(b, pct, w): v["mtps"] for (pct, w, b), v in smoke("table3").items()}


def _table5():
    return {b: v["rwset_us"] for (b,), v in smoke("table5").items()}


def _table6():
    return _values("table6")


def _table7():
    return _values("table7")


def _table8():
    return {w: v for (w,), v in _values("table8").items()}


def _table9():
    return {w: v for (w,), v in _values("table9").items()}


def _fig6a():
    return {b: v for (b,), v in _values("fig6a").items()}


def _fig7():
    """One batch size, so no cell runs after another."""
    return {
        (wl, b, n): v["mtps"]
        for (n, wl, b), v in smoke("fig7").items()
        if wl in ("c", "e")
    }


def _warp_division():
    return _ablation("adaptive warp division", "divergence")


def _reordering():
    return _ablation("logical reordering", "raw_abort_pct")


def _btree_scans():
    """The third column was the scans' commit rate in percent."""
    scans = _ablation("YCSB-E scan access path", "commit_rate")
    return {variant: (mtps, rate, 100 * rate) for variant, (mtps, rate, _) in scans.items()}


def _sweep():
    return _values("sweep")


def _fullmix():
    v = smoke("fullmix")[()]
    procs = ("neworder", "payment", "orderstatus", "stocklevel", "delivery")
    return (
        v["mtps"],
        v["commit_rate"],
        v["p50_us"],
        v["p99_us"],
        {proc: v[f"{proc}_rate"] for proc in procs},
        {int(a): n for a, n in v["retries"].items()},
    )


def _trace_cli():
    tracer, _metrics, run = capture("smallbank")
    return _batches(run), len(tracer.spans)


def _pipelined_drain():
    """Nothing tops the scheduler up and retries wait two batches, so
    every other cut is empty: the scheduler advances, the engine's
    batch counter does not."""
    setup = build_workload("smallbank", seed=7)
    engine = setup.engine(batch_size=64, pipelined=True)
    scheduler = BatchScheduler(64)
    scheduler.admit(setup.generator.make_batch(40))
    run = engine.process(scheduler)
    return (
        _batches(run),
        scheduler.batch_index,
        engine.device.elapsed_ns(),
        setup.database.state_digest(),
    )


def _baseline_run_transactions():
    db, registry = build_bank()
    txns = [txn("transfer", 0, 1, 1) for _ in range(4)]
    run = AriaEngine(db, registry).run_transactions(
        txns, batch_size=4, max_batches=20
    )
    return _batches(run), [t.tid for t in txns], [t.attempts for t in txns]


GOLDEN = {
    _table2: {
        ("aria", 50, 8): 0.33804557421480885,
        ("bamboo", 50, 8): 4.513077749079748,
        ("bohm", 50, 8): 0.02320248841854437,
        ("calvin", 50, 8): 0.49216193665722074,
        ("dbx1000", 50, 8): 2.215246694977404,
        ("gacco", 50, 8): 2.191670676949554,
        ("gputx", 50, 8): 0.08157797076125496,
        ("ltpg", 50, 8): 2.353030232469061,
        ("pwv", 50, 8): 1.2138339133815705,
    },
    _table4: {
        ("gacco", 8, 8192): (111.98737010912699, 19.306333333333335),
        ("ltpg", 8, 8192): (84.42819548354869, 17.714583333333337),
    },
    _calibration: ("TableII 50-8 gacco (MTPS)", 2.191670676949554, 16.06),
    _fig6b: {
        "baseline": 0.9536871124873776,
        "+high-contention": 2.1602750279661036,
        "+hash-buckets": 2.6497997551752945,
        "+pipeline": 3.366870127683934,
    },
    _retry_delay: {
        "retry +1": (2.0271830385041065, 0.7298177083333334, 92.16401764647797),
        "retry +2": (2.198085163798459, 0.7532552083333334, 87.72787174456089),
    },
    _table3: {(256, 50, 8): 0.35974759879108326, (16384, 50, 8): 2.353030232469061},
    _table5: {1024: 8.420166666666669, 65536: 16.625},
    _table6: {
        (8, 16384, True): (
            203.5, 83.5, 120.0, 0.798828125, 0.6387411347517731, 0.9582161125319693
        ),
        (8, 16384, False): (
            74.5, 66.5, 8.0, 0.294921875, 0.694078947368421, 0.05163398692810457
        ),
    },
    _table7: {
        (1024, 1024, 1, 1): (778.4377534411387, 754.9329915363769, 23.504761904761892),
        (1024, 1024, 1, 32): (254.48101202103484, 230.97625011627295, 23.504761904761892),
        (1024, 1024, 32, 1): (254.48101202103473, 230.97625011627284, 23.504761904761892),
        (1024, 1024, 32, 32): (152.1605535040025, 128.65579159924062, 23.504761904761892),
        (1024, 1024, 512, 1): (161.40880921468, 137.9040473099181, 23.504761904761892),
        (1024, 1024, 512, 32): (134.39007142883096, 110.88530952406907, 23.504761904761892),
        (512, 512, 1, 1): (379.8088402151216, 370.93264973893133, 8.876190476190299),
        (512, 512, 1, 32): (101.2937393997768, 92.4175489235865, 8.876190476190299),
        (512, 512, 32, 1): (101.2937393997768, 92.4175489235865, 8.876190476190299),
        (512, 512, 32, 32): (49.571025842893405, 40.6948353667031, 8.876190476190299),
        (512, 512, 512, 1): (54.23330529133044, 45.35711481514014, 8.876190476190299),
        (512, 512, 512, 32): (40.11963558936864, 31.243445113178343, 8.876190476190299),
    },
    _table8: {
        8: (1.1270988012567793, 98.87290119874322),
        64: (1.1301900924751154, 98.86980990752488),
    },
    _table9: {
        32: ("zero_copy", 39.90009133424985, 4.3081298828125, 9.542905982905982),
        512: ("zero_copy", 38.202578125, 4.3525146484375, 14.785643564356436),
        1024: ("unified", 1201.94828125, 4.37900390625, 16.599304347826088),
        2048: ("unified", 1519.852578125, 4.40625, 16.807100840336133),
    },
    _fig6a: {256: (1.0, 85.83817089843751), 65536: (0.767578125, 98.6964707683976)},
    _fig7: {
        ("c", 1024, 10000): 0.7257368479577833,
        ("e", 1024, 10000): 0.30912383800187665,
    },
    _warp_division: {
        "grouped (adaptive)": (2.353030232469061, 0.798828125, 0.0),
        "naive (per-txn)": (1.9218261169754594, 0.798828125, 195.0),
    },
    _reordering: {
        "with reordering": (2.353030232469061, 0.798828125, 0.0),
        "without reordering": (2.353030232469061, 0.798828125, 0.0),
    },
    _btree_scans: {
        "pre-resolved keys": (2.247320987065071, 1.0, 100.0),
        "B-tree range scans": (2.1623720256515138, 1.0, 100.0),
    },
    _sweep: {
        (0.0, True): (4.692287718922322, 0.7998046875),
        (0.0, False): (1.2366278465847138, 0.2802734375),
        (1.0, True): (3.9216614768202347, 0.6474609375),
        (1.0, False): (1.2092812329520526, 0.2724609375),
    },
    _fullmix: (
        4.557113607529673,
        0.76220703125,
        86.49354166666669,
        90.42663761161486,
        {
            "neworder": 0.5956607495069034,
            "payment": 0.8960880195599022,
            "orderstatus": 1.0,
            "stocklevel": 1.0,
            "delivery": 0.3125,
        },
        {1: 1268, 2: 193, 3: 46, 4: 2},
    ),
    _trace_cli: (
        [
            (0, 512, 185, 327, 48896.01837222252),
            (1, 512, 198, 310, 70723.94464276258),
            (2, 512, 74, 428, 72255.46106055395),
            (3, 512, 85, 419, 74134.9524005073),
        ],
        56,
    ),
    _pipelined_drain: (
        [
            (0, 40, 24, 16, 41404.9276954512),
            (1, 16, 5, 11, 59042.53694652975),
            (2, 11, 2, 9, 60554.16116193586),
            (3, 9, 2, 7, 61002.35505066272),
            (4, 7, 2, 5, 60250.75552075778),
            (5, 5, 1, 4, 59904.38794625059),
            (6, 4, 2, 2, 58347.218392292736),
            (7, 2, 1, 1, 57284.11616032783),
            (8, 1, 1, 0, 54280.66666666666),
        ],
        17,
        242805.06277043757,
        "ac427546216abb5dc42c9fa1ab7c280bed8e5be045161aff1e6968f7fd6d9f9d",
    ),
    _baseline_run_transactions: (
        [
            (0, 4, 1, 3, 28398.666666666668),
            (1, 3, 1, 2, 28306.0),
            (2, 2, 1, 1, 28213.333333333332),
            (3, 1, 1, 0, 28120.666666666668),
        ],
        [0, 1, 2, 3],
        [1, 2, 3, 4],
    ),
}


@pytest.mark.parametrize(
    "loop", GOLDEN, ids=lambda loop: loop.__name__.lstrip("_")
)
def test_driven_loop_reproduces_its_hand_written_numbers(loop):
    assert loop() == GOLDEN[loop]
