"""Admission control: per-tenant rate limiting, depth caps, load shedding.

Every request entering :class:`~repro.serve.service.NL2SQLService` passes
through one :class:`AdmissionController`, which renders one of three
verdicts:

* **admit** — serve at full quality;
* **shed** — serve, but demoted down the approach's degradation ladder
  (:meth:`repro.core.pipeline.Purple.translate` with ``min_rung``): the
  request still gets an answer, just a cheaper one.  Shedding triggers
  when the tenant's token bucket is empty (sustained over-rate traffic)
  or the in-flight count crosses the soft cap;
* **reject** — refused with a 429 envelope.  Only the hard in-flight cap
  rejects; it bounds the work queue so a flood cannot exhaust threads.

The clock is injectable (:class:`~repro.llm.resilient.Clock`), so tests
drive refill deterministically with
:class:`~repro.llm.resilient.FakeClock` and sleep zero real seconds.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

from repro.llm.resilient import Clock, SystemClock
from repro.obs import runtime as obs

#: Admission verdicts.
ADMIT = "admit"
SHED = "shed"
REJECT = "reject"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``try_take`` refills lazily from the injected clock and consumes one
    token when available.  Not fair across callers — admission control
    wants cheap and approximate, not queued.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Optional[Clock] = None):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock or SystemClock()
        self._tokens = float(burst)
        self._refilled_at = self.clock.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_take(self, amount: float = 1.0) -> bool:
        """Consume ``amount`` tokens if available; never blocks."""
        with self._lock:
            self._refill(self.clock.monotonic())
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    @property
    def tokens(self) -> float:
        """Current token balance (after a lazy refill)."""
        with self._lock:
            self._refill(self.clock.monotonic())
            return self._tokens


@dataclass(frozen=True)
class AdmissionPolicy:
    """The knobs of one controller.

    ``rate``/``burst`` parameterize each tenant's token bucket;
    ``shed_inflight`` is the soft depth cap past which requests are
    demoted; ``max_inflight`` the hard cap past which they are refused.
    Every check runs here, at configuration time: a bucket that cannot
    be built would otherwise fail every request in its handler thread.
    """

    rate: float = 50.0
    burst: int = 25
    shed_inflight: int = 16
    max_inflight: int = 64

    def __post_init__(self):
        for name in ("rate", "burst"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.max_inflight < self.shed_inflight:
            raise ValueError("max_inflight must be >= shed_inflight")


class AdmissionController:
    """Applies one :class:`AdmissionPolicy` across all tenants.

    The in-flight counter is global (it protects the process); the token
    buckets are per tenant (they protect tenants from each other).
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None,
                 clock: Optional[Clock] = None):
        self.policy = policy or AdmissionPolicy()
        self.clock = clock or SystemClock()
        self._buckets: dict = {}
        self._inflight = 0
        self._peak_inflight = 0
        self._lock = threading.Lock()

    def _bucket(self, tenant_id: str) -> TokenBucket:
        bucket = self._buckets.get(tenant_id)
        if bucket is None:
            bucket = self._buckets[tenant_id] = TokenBucket(
                self.policy.rate, self.policy.burst, clock=self.clock
            )
        return bucket

    @property
    def inflight(self) -> int:
        """Requests currently admitted and not yet released."""
        with self._lock:
            return self._inflight

    @property
    def peak_inflight(self) -> int:
        """High-water mark of concurrent admitted requests."""
        with self._lock:
            return self._peak_inflight

    def acquire(self, tenant_id: str) -> str:
        """Render a verdict and (unless rejecting) take an in-flight slot.

        Callers must :meth:`release` exactly once for every non-reject
        verdict; prefer the :meth:`request` context manager.
        """
        with self._lock:
            if self._inflight >= self.policy.max_inflight:
                obs.count("serve.rejected", tenant=tenant_id)
                obs.event(
                    "serve.rejected",
                    level="warning",
                    tenant=tenant_id,
                    inflight=self._inflight,
                )
                return REJECT
            self._inflight += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
            depth_shed = self._inflight > self.policy.shed_inflight
            bucket = self._bucket(tenant_id)
        # The bucket has its own lock; take it outside ours.
        if depth_shed or not bucket.try_take():
            obs.count("serve.shed", tenant=tenant_id)
            obs.event(
                "serve.shed",
                tenant=tenant_id,
                reason="depth" if depth_shed else "rate",
            )
            return SHED
        return ADMIT

    def release(self) -> None:
        """Give back the in-flight slot taken by a non-reject verdict."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def snapshot(self) -> dict:
        """JSON-ready posture for ``/v1/metrics`` and ``/v1/status``."""
        with self._lock:
            inflight = self._inflight
            peak = self._peak_inflight
            buckets = dict(self._buckets)
        return {
            "inflight": inflight,
            "peak_inflight": peak,
            "policy": asdict(self.policy),
            "tokens": {
                tenant_id: round(bucket.tokens, 3)
                for tenant_id, bucket in sorted(buckets.items())
            },
        }

    @contextmanager
    def request(self, tenant_id: str) -> Iterator[str]:
        """Scope one request: yields the verdict, releases on exit."""
        verdict = self.acquire(tenant_id)
        if verdict == REJECT:
            yield verdict
            return
        try:
            yield verdict
        finally:
            self.release()
