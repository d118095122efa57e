"""Admission control: bounded queue + per-tenant token buckets.

Backpressure sits *in front of* the batch scheduler: a request that
would overrun the bounded ingress queue, or whose tenant has exhausted
its rate budget, is shed immediately with a typed rejection
(:mod:`repro.serve.errors`) instead of being buffered into unbounded
latency.  Shedding at admission is what keeps the latency percentiles
of admitted requests meaningful under overload — the alternative
(infinite queue) converts every overload into unbounded p99.

All arithmetic runs on integer virtual-clock nanoseconds, so admission
decisions are exactly reproducible for a replayed arrival trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.errors import QueueFullRejected, ServeError, TenantThrottled

#: Queue bound used when the caller does not pick one: a few full
#: batches of the paper's headline size.
DEFAULT_MAX_QUEUE_DEPTH = 65_536


class TokenBucket:
    """Deterministic token bucket on the virtual clock.

    Refill is computed lazily from elapsed virtual nanoseconds in exact
    integer arithmetic (token counts are kept scaled by ``_SCALE``), so
    no float drift can ever make two identical runs disagree about the
    admission of a boundary request.
    """

    __slots__ = ("rate_per_s", "burst", "_scaled", "_last_ns")

    #: one token, in rate-scaled units (token·ns/s)
    _SCALE = 1_000_000_000

    def __init__(self, rate_per_s: int, burst: int):
        if rate_per_s <= 0:
            raise ServeError("token rate must be positive")
        if burst <= 0:
            raise ServeError("token burst must be positive")
        self.rate_per_s = rate_per_s
        self.burst = burst
        # start full: a quiet tenant can always burst
        self._scaled = burst * self._SCALE
        self._last_ns = 0

    def _refill(self, now_ns: int) -> None:
        elapsed = now_ns - self._last_ns
        if elapsed > 0:
            self._scaled = min(
                self.burst * self._SCALE,
                self._scaled + elapsed * self.rate_per_s,
            )
        self._last_ns = max(self._last_ns, now_ns)

    def try_take(self, now_ns: int) -> bool:
        """Take one token if available; never blocks."""
        self._refill(now_ns)
        if self._scaled >= self._SCALE:
            self._scaled -= self._SCALE
            return True
        return False

    def retry_after_ns(self, now_ns: int) -> int:
        """Virtual ns until one token will be available (0 if now)."""
        self._refill(now_ns)
        deficit = self._SCALE - self._scaled
        if deficit <= 0:
            return 0
        # ceil-divide: the first instant the deficit is covered
        return -(-deficit // self.rate_per_s)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant rate budget (requests/second of virtual time)."""

    rate_per_s: int
    burst: int


class AdmissionController:
    """Decides, per arriving request, admit vs typed shed.

    Two independent guards, checked in order:

    1. **per-tenant token bucket** — a flooding tenant exhausts its own
       budget and is shed with :class:`TenantThrottled` *before* it can
       occupy shared queue capacity, isolating well-behaved tenants;
    2. **bounded queue** — total ingress backlog above
       ``max_queue_depth`` sheds with :class:`QueueFullRejected`.

    ``default_quota=None`` disables rate limiting for tenants without an
    explicit quota (the single-tenant benchmarks run this way).
    """

    def __init__(
        self,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        default_quota: TenantQuota | None = None,
        tenant_quotas: dict[str, TenantQuota] | None = None,
    ):
        if max_queue_depth <= 0:
            raise ServeError("max_queue_depth must be positive")
        self.max_queue_depth = max_queue_depth
        self._default_quota = default_quota
        self._quotas = dict(tenant_quotas or {})
        self._buckets: dict[str, TokenBucket] = {}

    def _bucket(self, tenant: str) -> TokenBucket | None:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self._quotas.get(tenant, self._default_quota)
            if quota is None:
                return None
            bucket = TokenBucket(quota.rate_per_s, quota.burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, queue_depth: int, now_ns: int) -> None:
        """Raise a typed :class:`AdmissionRejected` subclass, or return
        with one tenant token consumed and the request admitted.  A shed
        request spends no token."""
        bucket = self._bucket(tenant)
        if bucket is not None and (wait := bucket.retry_after_ns(now_ns)):
            raise TenantThrottled(
                tenant=tenant,
                queue_depth=queue_depth,
                retry_after_ns=wait,
            )
        if queue_depth >= self.max_queue_depth:
            raise QueueFullRejected(
                tenant=tenant,
                queue_depth=queue_depth,
                max_depth=self.max_queue_depth,
            )
        if bucket is not None:
            bucket.try_take(now_ns)
