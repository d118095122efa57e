"""High-level serve API: whole-run reports, one-call sims.

Two layers of convenience over :class:`~repro.serve.orchestrator
.Orchestrator`:

* :func:`serve_run` — drive an *existing* engine with simulated open- or
  closed-loop clients on a fresh virtual clock and collect a
  :class:`ServeReport`;
* :func:`simulate_serve` — build one of the named workloads and serve
  it end to end (what ``python -m repro.serve`` and the bench harness
  call).

Reports carry exact nearest-rank latency percentiles plus goodput in
*simulated* transactions/second — deterministic for a fixed (workload,
policy, seed) triple, which is what lets CI regenerate
``BENCH_serve.json`` and require it unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.serve.admission import AdmissionController
from repro.serve.errors import ServeError
from repro.serve.orchestrator import Orchestrator
from repro.serve.policies import BatchPolicy, SizePolicy, make_policy
from repro.serve.workload import (
    ClientProfile,
    ClientStats,
    RequestSource,
    closed_loop,
    open_loop,
)


@dataclass
class ServeReport:
    """Everything one serve run produced, JSON-ready."""

    workload: str
    mode: str
    policy: dict[str, Any]
    submitted: int
    shed: int
    shed_by_reason: dict[str, int]
    failed: int
    committed: int
    logic_aborted: int
    retries: int
    batches: int
    mean_batch_size: float
    duration_ns: int
    goodput_tps: float
    #: end-to-end latency (queue wait + batch residency + execute), ns
    latency: dict[str, Any] = field(default_factory=dict)
    #: submission -> first batch membership, ns
    queue_wait: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.__dict__, indent=indent, sort_keys=True)

    def format(self) -> str:
        lat, qw = self.latency, self.queue_wait
        lines = [
            f"serve: {self.workload} [{self.mode}-loop, "
            f"policy={self.policy.get('name')}]",
            f"  submitted {self.submitted}  shed {self.shed}  "
            f"failed {self.failed}",
            f"  committed {self.committed}  logic-aborted "
            f"{self.logic_aborted}  retries {self.retries}",
            f"  batches {self.batches}  mean size "
            f"{self.mean_batch_size:.1f}",
            f"  simulated duration {self.duration_ns / 1e6:.3f} ms  "
            f"goodput {self.goodput_tps / 1e6:.3f} Mtps",
            f"  latency   p50 {lat.get('p50', 0) / 1e3:.1f} us  "
            f"p95 {lat.get('p95', 0) / 1e3:.1f} us  "
            f"p99 {lat.get('p99', 0) / 1e3:.1f} us  "
            f"max {lat.get('max', 0) / 1e3:.1f} us",
            f"  queue-wait p50 {qw.get('p50', 0) / 1e3:.1f} us  "
            f"p99 {qw.get('p99', 0) / 1e3:.1f} us",
        ]
        return "\n".join(lines)


def _build_report(
    *,
    workload: str,
    mode: str,
    orchestrator: Orchestrator,
    stats: ClientStats,
    duration_ns: int,
) -> ServeReport:
    snap = orchestrator.metrics.snapshot()
    counters = snap["counters"]
    committed = counters.get("serve.committed", 0)
    sized = [len(r.seqs) for r in orchestrator.batch_records]
    policy = orchestrator.policy
    policy_info: dict[str, Any] = {
        "name": policy.name,
        "capacity": policy.capacity,
        "describe": policy.describe(),
    }
    max_wait = getattr(policy, "max_wait_ns", None)
    if max_wait is not None:
        policy_info["max_wait_ns"] = max_wait
    return ServeReport(
        workload=workload,
        mode=mode,
        policy=policy_info,
        submitted=stats.submitted,
        shed=stats.shed,
        shed_by_reason=dict(stats.shed_by_reason or {}),
        failed=stats.failed,
        committed=committed,
        logic_aborted=counters.get("serve.logic_aborted", 0),
        retries=counters.get("serve.retries", 0),
        batches=len(sized),
        mean_batch_size=(sum(sized) / len(sized)) if sized else 0.0,
        duration_ns=duration_ns,
        goodput_tps=(committed / (duration_ns * 1e-9)) if duration_ns else 0.0,
        latency=orchestrator.latency.summary(),
        queue_wait=orchestrator.queue_wait.summary(),
        metrics=snap,
    )


def serve_run(
    engine: Any,
    generator: Any,
    *,
    workload: str = "custom",
    policy: BatchPolicy | str = "hybrid",
    max_wait_us: int = 200,
    admission: AdmissionController | None = None,
    profile: ClientProfile | None = None,
    mode: str = "open",
    num_requests: int = 512,
    rate_per_s: float = 2e6,
    poisson: bool = True,
    sessions: int = 32,
    requests_per_session: int = 16,
    think_us: int = 0,
    arrival_seed: int = 23,
    debug: bool | None = None,
) -> ServeReport:
    """Serve ``engine`` from simulated clients on a fresh virtual clock.

    The engine's run-scoped clocks are rewound first
    (:meth:`~repro.core.engine.LTPGEngine.reset_run_state`), so the
    serve timeline and the device timeline both start at ``t=0`` and
    back-to-back runs are bit-identical.

    A closed loop under a :class:`SizePolicy` is refused with a
    :class:`ServeError`: its last requests never fill a batch, and the
    ingress drains only after every session has finished.
    """
    from repro.serve.clock import run_simulation

    if isinstance(policy, str):
        policy = make_policy(
            policy, engine.config.batch_size, max_wait_ns=max_wait_us * 1000
        )
    if mode == "closed" and isinstance(policy, SizePolicy):
        raise ServeError(
            "a closed loop never fills its last size-only batch; "
            "use the 'hybrid' or 'deadline' policy"
        )
    engine.reset_run_state()
    source = RequestSource(generator, profile or ClientProfile())

    async def main() -> tuple[ClientStats, int, Orchestrator]:
        orch = Orchestrator(engine, policy=policy, admission=admission)
        if mode == "open":
            stats = await open_loop(
                orch,
                source,
                num_requests=num_requests,
                rate_per_s=rate_per_s,
                poisson=poisson,
                rng_seed=arrival_seed,
            )
        elif mode == "closed":
            stats = await closed_loop(
                orch,
                source,
                sessions=sessions,
                requests_per_session=requests_per_session,
                think_ns=think_us * 1000,
            )
        else:
            raise ServeError(
                f"unknown serve mode {mode!r}; expected 'open' or 'closed'"
            )
        return stats, orch.clock.now_ns(), orch

    stats, duration_ns, orch = run_simulation(main(), debug=debug)
    return _build_report(
        workload=workload,
        mode=mode,
        orchestrator=orch,
        stats=stats,
        duration_ns=duration_ns,
    )


def simulate_serve(
    workload: str = "tpcc",
    *,
    batch_size: int = 64,
    seed: int = 7,
    trace: bool = False,
    engine_overrides: dict[str, Any] | None = None,
    **run_kwargs: Any,
) -> ServeReport:
    """Build one of the named workloads and serve it end to end.

    Accepts every :func:`serve_run` keyword; returns its report.  The
    engine is closed before returning — pass ``trace=True`` plus a
    ``trace_out`` path via the CLI to keep a Chrome trace of the run.
    """
    from repro.analysis.workload import build_workload

    trace_out = run_kwargs.pop("trace_out", None)
    setup = build_workload(workload, seed=seed)
    overrides = dict(engine_overrides or {})
    if trace or trace_out:
        overrides["trace"] = True
    engine = setup.engine(batch_size=batch_size, **overrides)
    try:
        report = serve_run(
            engine, setup.generator, workload=workload, **run_kwargs
        )
        if trace_out and engine.tracer is not None:
            engine.tracer.write(trace_out)
    finally:
        engine.close()
    return report
