"""Served stream ≡ the oracle: the serve layer changes *when* batches are
cut, never what they commit.

Every differential here is a conformance-lattice cell
(``helpers.check_cell``) on a ``served:<policy>:<lanes>`` route, on all
three benchmark workloads.  Under the size policy the oracle drives the
same request stream through a :class:`BatchScheduler` of the same size
(the orchestrator reuses that scheduler verbatim); deadline cuts depend
on arrival timing, so there the oracle replays the recorded cuts.  The
lattice also holds that these cells retry and that deadline cuts make
partial batches: a serve layer that never re-queued an abort would pass
trivially.
"""

from __future__ import annotations

import pytest

from helpers import check_cell
from repro.analysis.workload import WORKLOAD_NAMES

pytestmark = pytest.mark.serve


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("batch_size", [16, 48])
def test_size_policy_matches_pregenerated(workload, batch_size):
    # not a trivial pass: the stream aborted and retried
    assert check_cell(workload, "default", f"served:size:{batch_size}").retried


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize(
    "policy_name,batch_size", [("deadline", 16), ("hybrid", 24), ("hybrid", 8)]
)
def test_deadline_cuts_replay_identically(workload, policy_name, batch_size):
    cell = check_cell(workload, "default", f"served:{policy_name}:{batch_size}")
    assert cell.retried
    # deadline cuts produced partial batches, or this test degenerates
    # into the size-policy one
    assert any(0 < n < batch_size for n in cell.cuts)


@pytest.mark.parametrize("workload", ["smallbank", "tpcc"])
def test_pipelined_retry_delay_matches(workload):
    """Pipelined mode (retry +2 batches) exercises the orchestrator's
    index-advancing empty cuts.  They advance the scheduler and run
    nothing, as :func:`drive`'s do: state, the engine's batch indices
    (``check_cell`` holds them dense, as logged) and the batch log all
    match the oracle's driven stream."""
    cell = check_cell(workload, "pipelined", "served:size:16")
    assert cell.retried
    # not a trivial pass: this stream makes empty cuts
    assert workload != "smallbank" or 0 in cell.cuts


def test_simulated_serve_on_the_device_backend_matches_the_host():
    """``simulate_serve`` — behind ``python -m repro.serve`` and
    ``python -m repro.bench serve`` — builds the engine it is asked for
    and nothing more, so a device-backend override serves the same
    report as the host (the transfer counters aside)."""
    from repro.serve.api import simulate_serve

    reports = [
        simulate_serve(
            "smallbank", num_requests=128, engine_overrides={"array_backend": b}
        ).__dict__
        for b in ("numpy", "mockgpu")
    ]
    for report in reports:
        del report["metrics"]
    assert reports[0] == reports[1]
    assert reports[0]["committed"] > 0
