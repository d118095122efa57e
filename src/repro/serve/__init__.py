"""Async serving front-end for the LTPG batch engine.

The engine commits *batches*; clients submit *single transactions*.
This package is the ingress layer between the two — the part of the
paper's system model that batches a live request stream into the
large GPU batches everything downstream assumes:

* :mod:`repro.serve.clock` — deterministic virtual-time asyncio
  (:class:`VirtualTimeLoop`, :class:`SimClock`, :func:`run_simulation`);
* :mod:`repro.serve.policies` — pluggable batch-cut strategies
  (:class:`SizePolicy`, :class:`DeadlinePolicy`);
* :mod:`repro.serve.admission` — bounded-queue + per-tenant token-bucket
  admission control with typed shed errors;
* :mod:`repro.serve.orchestrator` — the transport-agnostic core that
  cuts batches, runs the engine, re-queues concurrency-control aborts
  and completes each request — the :data:`ServeTicket` that ``post()``
  returned, which is its own response — a whole decided batch per loop
  callback;
* :mod:`repro.serve.workload` — simulated open-/closed-loop client
  populations with Zipf-skewed users;
* :mod:`repro.serve.api` — whole-run reports and the one-call
  :func:`simulate_serve` the CLI and bench harness use.

Run one from the shell::

    python -m repro.serve --workload tpcc --policy hybrid --requests 2000
"""

from repro.serve.admission import (
    AdmissionController,
    TenantQuota,
    TokenBucket,
)
from repro.serve.api import (
    ServeReport,
    serve_run,
    simulate_serve,
)
from repro.serve.clock import SimClock, VirtualTimeLoop, run_simulation
from repro.serve.errors import (
    AdmissionRejected,
    BatchExecutionError,
    IngressClosed,
    QueueFullRejected,
    ServeError,
    TenantThrottled,
    VirtualTimeDeadlock,
)
from repro.serve.orchestrator import (
    BatchRecord,
    Orchestrator,
    ServeTicket,
)
from repro.serve.policies import (
    POLICY_NAMES,
    BatchPolicy,
    DeadlinePolicy,
    QueueView,
    SizePolicy,
    make_policy,
)
from repro.serve.workload import (
    ClientProfile,
    ClientStats,
    RequestSource,
    closed_loop,
    open_loop,
)

__all__ = [
    "POLICY_NAMES",
    "AdmissionController",
    "AdmissionRejected",
    "BatchExecutionError",
    "BatchPolicy",
    "BatchRecord",
    "ClientProfile",
    "ClientStats",
    "DeadlinePolicy",
    "IngressClosed",
    "Orchestrator",
    "QueueFullRejected",
    "QueueView",
    "RequestSource",
    "ServeError",
    "ServeReport",
    "ServeTicket",
    "SimClock",
    "SizePolicy",
    "TenantQuota",
    "TenantThrottled",
    "TokenBucket",
    "VirtualTimeDeadlock",
    "VirtualTimeLoop",
    "closed_loop",
    "make_policy",
    "open_loop",
    "run_simulation",
    "serve_run",
    "simulate_serve",
]
