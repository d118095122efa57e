"""Static and simulation-time analyses for the LTPG reproduction.

Four passes, mirroring what ``compute-sanitizer`` and a CUDA linter
would give the real system:

* :mod:`repro.analysis.sanitizer` — shadow access log with racecheck
  (write-write / read-write / atomic-plain hazards between threads with
  no intervening sync point) and memcheck (out-of-bounds indices).
* :mod:`repro.analysis.detlint` — determinism linter for stored
  procedures: a static AST pass rejecting nondeterminism sources plus a
  dynamic twin that replays procedures and diffs their op streams.
* :mod:`repro.analysis.kernellint` — static backend-contract,
  determinism, and twin-drift analysis for the batched procedure twins
  (``KLxxx`` rule codes, SARIF-ready findings).
* :mod:`repro.analysis.passes` — workload-level runners behind
  ``python -m repro.analysis <pass> [--workload tpcc|ycsb|smallbank]``.

This module deliberately re-exports only the dependency-light core
(findings, sanitizer, linter); the engine imports
``repro.analysis.sanitizer`` directly, and the pass runners (which
import the engine) load lazily via the CLI.
"""

from __future__ import annotations

from repro.analysis.detlint import (
    lint_procedure,
    lint_registry,
    lint_source,
    replay_procedure,
    replay_transactions,
)
from repro.analysis.findings import (
    DETLINT,
    KERNELLINT,
    MEMCHECK,
    RACECHECK,
    Finding,
    FindingReport,
)
from repro.analysis.kernellint import (
    RULES,
    lint_registry_twins,
    lint_twin_unit,
    source_unit,
)
from repro.analysis.sanitizer import AccessKind, Sanitizer, ShadowBuffer

__all__ = [
    "AccessKind",
    "DETLINT",
    "Finding",
    "FindingReport",
    "KERNELLINT",
    "MEMCHECK",
    "RACECHECK",
    "RULES",
    "Sanitizer",
    "ShadowBuffer",
    "lint_procedure",
    "lint_registry",
    "lint_registry_twins",
    "lint_source",
    "lint_twin_unit",
    "replay_procedure",
    "replay_transactions",
    "source_unit",
]
