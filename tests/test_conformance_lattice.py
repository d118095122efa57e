"""The conformance lattice: the engine's configurations against the oracle.

Each cell drives generated batches of a shipped workload
(:func:`helpers.observe_cell`) on one engine configuration — array
backend by executor — and must show the per-lane statuses, abort
reasons and final digest of the reference cell, the host-only
:class:`~reference_engine.ReferenceEngine`, which shares neither the
collector nor the write-back with the engine under test.  Agreement
between two cells of the same pipeline is therefore never the
evidence, and ``observe_cell`` also replays every batch of every cell
serially in witness order.
"""

from __future__ import annotations

import functools

import pytest

from helpers import observe_cell
from repro.analysis.workload import WORKLOAD_NAMES

BACKEND_CELLS = {
    "numpy": {},
    # a device backend is resident by definition
    "mockgpu": dict(array_backend="mockgpu"),
}


@functools.lru_cache(maxsize=None)
def _reference_cell(workload):
    return observe_cell(workload, reference=True)


@pytest.mark.parametrize("backend", list(BACKEND_CELLS))
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_cell_matches_the_reference(workload, backend):
    cell = observe_cell(workload, **BACKEND_CELLS[backend])
    assert cell == _reference_cell(workload)


@pytest.mark.parametrize("backend", list(BACKEND_CELLS))
@pytest.mark.parametrize("workload", ["smallbank", "tpcc"])
def test_twin_less_cell_matches_the_reference(workload, backend):
    """``batched_exec=False`` (every procedure treated as twin-less, so
    every lane is a scalar lane) on either backend: the same pipeline,
    the same outcomes."""
    cell = observe_cell(workload, batched_exec=False, **BACKEND_CELLS[backend])
    assert cell == _reference_cell(workload)
