"""The conformance lattice: every cell against the oracle.

A cell is one batch source x one configuration x one route
(:data:`helpers.SOURCES`, :data:`helpers.CONFIGS`, and ``direct`` /
``driven`` / ``served:<policy>:<lanes>``).  :func:`helpers.check_cell`
runs the engine under test and the host-only
:class:`~reference_engine.ReferenceEngine` on the same stream and asserts
that they observe the same thing — every ``BatchStats`` field, every
lane's verdict, attempts and ops, the committed TIDs, the batch log,
served verdicts, the final digest and slot order — and replays every
batch the engine ran serially in witness order.  The oracle shares
neither the collector nor the write-back with the engine, so agreement
between two fast paths is never the evidence.

Coverage, not the full product: every source meets ``default``,
``twin-less`` and ``mockgpu`` on the direct route; every configuration
meets every route; the three shipped workloads meet every configuration
driven, with aborts re-queued.  A cell that a seed-era test id in a
folded suite names is listed there, at the size that suite ran
(``smallbank-500@1024x3``), and left out here; those suites also hold
random bank batches from Hypothesis (``test_columnar_equivalence``) and
the 2^14 headline batch, the one cell that meets numpy instead of the
oracle (``test_backend_equivalence``).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from helpers import (
    CONFIGS,
    HEADLINE,
    NEWORDER_CELLS,
    SOURCES,
    check_cell,
    mixed_bank_specs,
    oracle_cell,
)
from repro.analysis.workload import WORKLOAD_NAMES
from repro.txn import TxnStatus

HOST = ("default", "twin-less", "mockgpu")
SERVED = ("served:size:16", "served:deadline:16", "served:hybrid:8")

#: Cells that a seed-era test id in another module (or
#: ``test_driven_cells_retry`` below) names: listed there, not here.
NAMED_ELSEWHERE = {
    (s, c, "direct")
    for s in SOURCES
    if s.startswith("neworder:") or s in ("mixed-bank", "small-groups", "churn")
    for c in ("default", "twin-less")
} | {(s, "default", "driven") for s in WORKLOAD_NAMES}

LATTICE = sorted((
    {(s, c, "direct") for s in SOURCES if s != HEADLINE for c in HOST}
    | {(s, c, "direct") for s in ("tpcc-full-mix", "smallbank") for c in CONFIGS}
    | {(s, c, "driven") for s in WORKLOAD_NAMES for c in CONFIGS}
    | {
        (s, "default", "driven")
        for s in SOURCES
        if s != HEADLINE and not s.startswith(("neworder:", "key-order:"))
    }
    | {("smallbank", c, r) for c in CONFIGS if c != "default" for r in SERVED}
) - NAMED_ELSEWHERE)


def _param(source, config, route):
    marks = []
    if "mockgpu" in config:
        marks.append(pytest.mark.backend)
    if route.startswith("served"):
        marks.append(pytest.mark.serve)
    return pytest.param(
        source, config, route, marks=marks, id=f"{source}/{config}/{route}"
    )


@pytest.mark.parametrize("source, config, route", [_param(*c) for c in LATTICE])
def test_cell_meets_the_oracle(source, config, route):
    check_cell(source, config, route)


BACKENDS = ["numpy", pytest.param("mockgpu", marks=pytest.mark.backend)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_cell_matches_the_reference(workload, backend):
    check_cell(workload + "@256x2", "default" if backend == "numpy" else backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", ["smallbank", "tpcc"])
def test_twin_less_cell_matches_the_reference(workload, backend):
    config = "twin-less" if backend == "numpy" else "mockgpu-twin-less"
    check_cell(workload + "@256x2", config)


# -- the cells are not trivial ------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_driven_cells_retry(workload):
    assert check_cell(workload, "default", "driven").retried


def test_the_sources_hold_what_they_name():
    def batches(source, config="default"):
        return oracle_cell(source, config, "direct", ())["batches"]

    for cell, (_, logic_aborts) in NEWORDER_CELLS.items():
        stats = [s for s, *_ in batches(f"neworder:{cell}")]
        assert sum(s["logic_aborted"] for s in stats) == logic_aborts, cell
    # every procedure of the mixed bank ran; a rolled-back lane keeps its ops
    (_, lanes, *_), _ = batches("mixed-bank")
    by_proc = {}
    for (name, _), (_, status, _, _, raw) in zip(mixed_bank_specs(), lanes):
        by_proc.setdefault(name, set()).add((status, bool(raw)))
    assert by_proc["bad"] == {(TxnStatus.LOGIC_ABORTED, True)}
    assert set(by_proc) == {"transfer", "deposit", "audit", "open_account", "bad"}
    (stats, _, committed, _), _ = batches("waw-chain")
    assert len(committed) == 1 and stats["abort_reasons"]
    for _, lanes, committed, _ in batches("all-logic-aborts"):
        assert not committed
        assert {status for _, status, *_ in lanes} == {TxnStatus.LOGIC_ABORTED}
    # the naive warp planner's divergence is what the oracle's finds
    for source in ("tpcc-full-mix", "smallbank"):
        assert all(s["divergent_branches"] for s, *_ in batches(source, "no-opts"))


# -- process independence --------------------------------------------------------------
def test_a_driven_cell_is_independent_of_the_hash_seed():
    """One driven TPC-C cell in two processes with different string
    hash seeds: set iteration order must not reach any observable."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = "import helpers; print(helpers.observation_hash('tpcc', 'default', 'driven'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([here, *sys.path])}
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            env={**env, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    hashes = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert hashes[0] == hashes[1] and len(hashes[0].strip()) == 64
