"""Analyses over the LTPG reproduction's stored procedures.

* :mod:`repro.analysis.detlint` — determinism linter for stored
  procedures and their batched twins: a static AST pass rejecting
  nondeterminism sources plus a dynamic twin that replays procedures and
  diffs their op streams.  It is the only check that a procedure is a
  pure function of ``(snapshot, params)``.
* :mod:`repro.analysis.workload` — the three shipped workloads at
  analysis scale, which the validator, the serve simulator and the
  tests build engines from.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis <pass>
  [--workload tpcc|ycsb|smallbank]``.

The rest of the paper's correctness argument (one committed writer per
conflict item, readers serialised before writers) is checked at run
time by ``BatchResult.serial_order()``, witness-order replay
(:mod:`repro.validate`), the conformance lattice and mockgpu's strict
kernel phase; tests/test_oracle_catches.py records which oracle
catches which seeded defect.
"""

from __future__ import annotations

from repro.analysis.detlint import (
    Finding,
    lint_procedure,
    lint_registry,
    lint_source,
    replay_procedure,
    replay_transactions,
)

__all__ = [
    "Finding",
    "lint_procedure",
    "lint_registry",
    "lint_source",
    "replay_procedure",
    "replay_transactions",
]
