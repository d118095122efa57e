"""The four analysis passes, runnable from the CLI and from pytest.

* ``racecheck`` / ``memcheck`` — run the LTPG engine over a workload
  with the sanitizer attached (``LTPGConfig.sanitize=True``); the three
  phase kernels (execute / conflict / writeback) log shadow accesses,
  and the pass reports that pass's findings.
* ``detlint`` — static AST lint over every registered procedure plus
  the dynamic replay twin over a generated transaction sample.
* ``kernellint`` — static backend-contract, determinism, and
  twin-drift analysis over every registered batched twin (no engine
  run; see :mod:`repro.analysis.kernellint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.detlint import lint_registry, replay_transactions
from repro.analysis.findings import (
    DETLINT,
    KERNELLINT,
    MEMCHECK,
    RACECHECK,
    Finding,
    FindingReport,
)
from repro.analysis.kernellint import lint_registry_twins
from repro.analysis.workload import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_BATCHES,
    WorkloadSetup,
    build_workload,
)
from repro.txn.batch import BatchScheduler

PASS_NAMES = (RACECHECK, MEMCHECK, DETLINT, KERNELLINT)


@dataclass
class AnalysisResult:
    """Outcome of one pass over one workload."""

    pass_name: str
    workload: str
    report: FindingReport
    #: Which phase kernels ran under the sanitizer (racecheck/memcheck).
    kernels: list[str] = field(default_factory=list)
    accesses_logged: int = 0
    procedures_checked: int = 0
    batches_run: int = 0

    @property
    def clean(self) -> bool:
        return self.report.clean

    def render(self) -> str:
        head = f"[{self.pass_name}] workload={self.workload}"
        if self.pass_name in (RACECHECK, MEMCHECK):
            head += (
                f" batches={self.batches_run}"
                f" kernels={sorted(set(self.kernels))}"
                f" accesses={self.accesses_logged}"
            )
        else:
            head += f" procedures={self.procedures_checked}"
        return head + "\n" + self.report.render()


def _sanitized_run(
    setup: WorkloadSetup,
    batches: int,
    batch_size: int,
) -> tuple[FindingReport, list[str], int, int]:
    """Run ``batches`` sanitized batches; returns findings + run stats."""
    engine = setup.engine(batch_size=batch_size, sanitize=True)
    sanitizer = engine.sanitizer
    assert sanitizer is not None  # sanitize=True attaches one
    # Admit through the scheduler so transactions get real TIDs and
    # aborted ones retry — the same life cycle a production batch has.
    scheduler = BatchScheduler(
        batch_size, retry_delay_batches=engine.config.effective_retry_delay
    )
    for _ in range(batches):
        scheduler.admit(setup.generator.make_batch(batch_size))
    engine.process(scheduler, max_batches=2 * batches)
    ran = scheduler.batch_index
    kernels = [
        entry.name
        for entry in engine.device.profiler.entries
        if entry.kind == "kernel"
    ]
    return sanitizer.report, kernels, sanitizer.accesses_logged, ran


def run_racecheck(
    workload: str = "tpcc",
    batches: int = DEFAULT_BATCHES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
) -> AnalysisResult:
    """Race-check the three LTPG phase kernels over a workload."""
    setup = build_workload(workload, seed=seed)
    full, kernels, accesses, ran = _sanitized_run(setup, batches, batch_size)
    report = FindingReport(full.by_pass(RACECHECK), suppressed=full.suppressed)
    return AnalysisResult(
        RACECHECK, workload, report,
        kernels=kernels, accesses_logged=accesses, batches_run=ran,
    )


def run_memcheck(
    workload: str = "tpcc",
    batches: int = DEFAULT_BATCHES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
) -> AnalysisResult:
    """Bounds-check the sized shadow buffers over a workload run."""
    setup = build_workload(workload, seed=seed)
    full, kernels, accesses, ran = _sanitized_run(setup, batches, batch_size)
    report = FindingReport(full.by_pass(MEMCHECK), suppressed=full.suppressed)
    return AnalysisResult(
        MEMCHECK, workload, report,
        kernels=kernels, accesses_logged=accesses, batches_run=ran,
    )


def run_detlint(
    workload: str = "tpcc",
    batches: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
    dynamic: bool = True,
) -> AnalysisResult:
    """Lint every registered procedure; optionally replay a sample."""
    setup = build_workload(workload, seed=seed)
    findings: list[Finding] = lint_registry(setup.registry)
    if dynamic:
        sample = setup.generator.make_batch(batch_size)
        findings.extend(
            replay_transactions(setup.database, setup.registry, sample)
        )
    return AnalysisResult(
        DETLINT, workload, FindingReport(findings),
        procedures_checked=len(setup.registry.names()),
    )


def run_kernellint(
    workload: str = "tpcc",
    batches: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
) -> AnalysisResult:
    """Static lint of every batched twin (no engine run; ``batches``
    and ``batch_size`` are accepted for dispatch uniformity)."""
    setup = build_workload(workload, seed=seed)
    findings, twins, suppressed = lint_registry_twins(setup.registry)
    return AnalysisResult(
        KERNELLINT, workload,
        FindingReport(findings, suppressed=suppressed),
        procedures_checked=twins,
    )


def run_pass(
    pass_name: str,
    workload: str = "tpcc",
    batches: int = DEFAULT_BATCHES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 7,
) -> list[AnalysisResult]:
    """Dispatch one pass (or ``all``); returns one result per pass run."""
    runners = {
        RACECHECK: run_racecheck,
        MEMCHECK: run_memcheck,
        DETLINT: run_detlint,
        KERNELLINT: run_kernellint,
    }
    if pass_name == "all":
        return [
            runner(workload, batches=batches, batch_size=batch_size, seed=seed)
            for runner in runners.values()
        ]
    if pass_name not in runners:
        raise ValueError(
            f"unknown pass {pass_name!r}; expected one of "
            f"{PASS_NAMES + ('all',)}"
        )
    return [
        runners[pass_name](
            workload, batches=batches, batch_size=batch_size, seed=seed
        )
    ]
