"""What the batch-driving loops produce on the simulated clock, pinned.

Every harness, CLI and convenience method that admits transactions,
cuts batches, runs them and re-queues the aborts goes through
:func:`repro.txn.batch.drive`.  These are the numbers the hand-written
loops it replaced produced, recorded before they moved: exact floats
and ints, because the driver changes who writes the loop, not what the
loop does — a changed cell here is a changed admission order, TID or
retry delay, not a tolerance to widen.
"""

from __future__ import annotations

import pytest

from helpers import build_bank, tiny_fig6b, tiny_table2, tiny_table4, txn
from repro.analysis.workload import build_workload
from repro.baselines import AriaEngine
from repro.bench import ablations, calibration
from repro.core.pipeline import pipelined
from repro.trace.cli import capture
from repro.txn import BatchScheduler


def _batches(run) -> list[tuple]:
    return [
        (b.batch_index, b.num_txns, b.committed, b.aborted, b.latency_ns)
        for b in run.batches
    ]


def _table2():
    """All nine systems: LTPG's steady state and the baselines'."""
    return tiny_table2().mtps


def _table4():
    return tiny_table4().cells


def _calibration():
    return calibration.run(scale=64, rounds=2, systems=("gacco",)).rows[0]


def _fig6b():
    """The last step runs under the batch-to-batch pipeline."""
    return tiny_fig6b().mtps


def _retry_delay():
    """Delay 2: retries that sit out a batch while fresh load tops up."""
    return ablations.run_retry_delay(scale=64, rounds=2).rows


def _trace_cli():
    tracer, _metrics, run = capture("smallbank")
    return _batches(run), len(tracer.spans)


def _pipelined_drain():
    """Nothing tops the scheduler up and retries wait two batches, so
    every other cut is empty: the scheduler advances, the engine's
    batch counter does not."""
    setup = build_workload("smallbank", seed=7)
    engine = setup.engine(batch_size=64, pipelined=True)
    scheduler = BatchScheduler(64, engine.config.effective_retry_delay)
    scheduler.admit(setup.generator.make_batch(40))
    with pipelined(engine):
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
    _trace_cli: (
        [
            (0, 512, 185, 327, 48896.01837222252),
            (1, 512, 198, 310, 70723.94464276258),
            (2, 512, 74, 428, 94197.8127661098),
            (3, 512, 85, 419, 117915.89704326988),
        ],
        56,
    ),
    _pipelined_drain: (
        [
            (0, 40, 24, 16, 41404.9276954512),
            (1, 16, 5, 11, 59042.53694652975),
            (2, 11, 2, 9, 77788.75552405373),
            (3, 9, 2, 7, 95965.89199719246),
            (4, 7, 2, 5, 113980.84437814484),
            (5, 5, 1, 4, 131823.27994344305),
            (6, 4, 2, 2, 148292.06277043757),
            (7, 2, 1, 1, 165080.72943710422),
            (8, 1, 1, 0, 178554.39610377088),
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
