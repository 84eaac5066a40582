"""Client-side resilience around any :class:`~repro.llm.interface.LLM`.

``ResilientLLM`` is the production-shaped wrapper the rest of the
pipeline talks to when the provider can fail: retry with exponential
backoff and full jitter, a per-request deadline budget, a
closed/open/half-open circuit breaker, and an optional fallback
provider.  All waiting goes through an injectable :class:`Clock`, so
tests and benchmarks run on :class:`FakeClock` with zero real sleeps and
a bit-reproducible backoff sequence (jitter comes from
:func:`~repro.utils.rng.derive_rng`, not from entropy).

Semantics at the error-taxonomy boundary:

* retryable errors (rate limit, timeout, 5xx, malformed payload) are
  retried up to ``max_attempts`` within the deadline budget;
* :class:`TruncatedCompletion` is re-raised immediately — retrying the
  same over-long prompt cannot help; the degradation ladder owns it;
* when retries are exhausted or the breaker is open, the fallback
  provider (if any) gets one shot before the last error propagates.

With a provider that never fails, ``complete`` is a transparent
pass-through: one inner call, the inner response returned unchanged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol

from repro.llm.errors import CircuitOpenError, LLMError, TruncatedCompletion
from repro.llm.interface import LLM, LLMRequest, LLMResponse
from repro.obs import runtime as obs
from repro.utils.rng import derive_rng


class Clock(Protocol):
    """Monotonic time plus sleep — the only clock surface the layer uses."""

    def monotonic(self) -> float:
        """Seconds on a monotonic clock."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds``."""
        ...


class SystemClock:
    """The real wall clock."""

    def monotonic(self) -> float:
        """Seconds on the process monotonic clock."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Actually sleep."""
        time.sleep(seconds)


class FakeClock:
    """A deterministic clock for tests: ``sleep`` just advances time."""

    def __init__(self, start: float = 0.0):
        self.now = start
        self.sleeps: list = []

    def monotonic(self) -> float:
        """Current simulated time."""
        return self.now

    def sleep(self, seconds: float) -> None:
        """Advance simulated time and record the wait."""
        self.sleeps.append(seconds)
        self.now += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter under a per-request deadline."""

    max_attempts: int = 4
    base_delay: float = 0.5
    max_delay: float = 8.0
    multiplier: float = 2.0
    #: "full" = AWS-style full jitter (uniform in [0, cap]); "none" = cap.
    jitter: str = "full"
    #: Wall-clock budget per ``complete`` call, seconds (None = unbounded).
    deadline: Optional[float] = 60.0

    def backoff_cap(self, attempt: int) -> float:
        """Un-jittered delay cap after the ``attempt``-th failure (1-based)."""
        return min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker thresholds."""

    #: Consecutive failures that trip the breaker closed → open.
    failure_threshold: int = 5
    #: Seconds the breaker stays open before probing (open → half-open).
    recovery_time: float = 30.0
    #: Probe successes needed to close again (half-open → closed).
    half_open_successes: int = 1


class CircuitBreaker:
    """Closed / open / half-open breaker on an injectable clock.

    Closed: calls pass; consecutive failures count up and trip it open.
    Open: calls are refused until ``recovery_time`` elapses, then the
    next call probes in half-open.  Half-open: a probe failure re-opens,
    ``half_open_successes`` probe successes close it.
    """

    def __init__(self, policy: BreakerPolicy, clock: Clock):
        self.policy = policy
        self.clock = clock
        self.state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_successes = 0

    def _transition(self, state: str) -> None:
        obs.count(
            "llm.breaker.transitions", **{"from": self.state, "to": state}
        )
        if state == "open":
            self._opened_at = self.clock.monotonic()
            obs.count("llm.breaker.opens")
            obs.event(
                "breaker.open",
                level="warning",
                consecutive_failures=self._consecutive_failures,
            )
        self.state = state

    def allow(self) -> bool:
        """Whether a call may proceed right now (may flip open → half-open)."""
        if self.state == "open":
            if (
                self.clock.monotonic() - self._opened_at
                >= self.policy.recovery_time
            ):
                self._probe_successes = 0
                self._transition("half_open")
                return True
            return False
        return True

    def record_success(self) -> None:
        """Report a successful provider call."""
        if self.state == "half_open":
            self._probe_successes += 1
            if self._probe_successes >= self.policy.half_open_successes:
                self._consecutive_failures = 0
                self._transition("closed")
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Report a failed provider call."""
        if self.state == "half_open":
            self._transition("open")
            return
        self._consecutive_failures += 1
        if (
            self.state == "closed"
            and self._consecutive_failures >= self.policy.failure_threshold
        ):
            self._transition("open")


@dataclass
class RetryTally:
    """Retries counted by one :func:`count_retries` block."""

    retries: int = 0


_TALLY: ContextVar[Optional[RetryTally]] = ContextVar(
    "repro_retry_tally", default=None
)


@contextmanager
def count_retries() -> Iterator[RetryTally]:
    """Count the retries :class:`ResilientLLM` makes on this context
    inside the block (the innermost open block counts them).

    The observer's ``llm.retries`` counter sums the retries of every
    task in a run; the tally is context-local, so with parallel workers each
    task is charged only the retries of its own calls.
    """
    tally = RetryTally()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


class ResilientLLM:
    """Retry + breaker + fallback around an inner LLM."""

    def __init__(
        self,
        inner: LLM,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        fallback: Optional[LLM] = None,
        clock: Optional[Clock] = None,
        seed: int = 0,
    ):
        self.inner = inner
        self.retry = retry or RetryPolicy()
        self.clock = clock or SystemClock()
        self.breaker = CircuitBreaker(breaker or BreakerPolicy(), self.clock)
        self.fallback = fallback
        self.seed = seed
        self.name = inner.name
        self._request_index = 0

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Complete with retries, breaker gating, and the fallback ladder."""
        rng = derive_rng(self.seed, "backoff", self._request_index)
        self._request_index += 1
        started = self.clock.monotonic()
        deadline = (
            started + self.retry.deadline
            if self.retry.deadline is not None
            else None
        )
        last_error: LLMError = CircuitOpenError("circuit breaker is open")
        attempts = 0
        while attempts < self.retry.max_attempts:
            if not self.breaker.allow():
                break
            attempts += 1
            obs.count("llm.attempts")
            failure: Optional[LLMError] = None
            with obs.span("llm.attempt", attempt=attempts):
                try:
                    response = self.inner.complete(request)
                except TruncatedCompletion:
                    # Same-size retries cannot help; hand straight to the
                    # degradation ladder.  Not a provider outage either,
                    # so the breaker does not count it.
                    obs.annotate(outcome="truncated")
                    raise
                except LLMError as exc:
                    obs.annotate(outcome=type(exc).__name__)
                    failure = exc
                else:
                    obs.annotate(outcome="ok")
            if failure is None:
                self.breaker.record_success()
                return response
            # The attempt span is closed: backoff waits belong to no
            # attempt.
            self.breaker.record_failure()
            last_error = failure
            if not failure.retryable:
                break
            if attempts >= self.retry.max_attempts:
                break
            delay = self._next_delay(attempts, failure, rng)
            if deadline is not None and (
                self.clock.monotonic() + delay > deadline
            ):
                break
            self.clock.sleep(delay)
            tally = _TALLY.get()
            if tally is not None:
                tally.retries += 1
            obs.count("llm.retries")
            obs.observe("llm.backoff_wait_s", delay)
            obs.event(
                "llm.retry",
                attempt=attempts,
                error=type(failure).__name__,
                wait_s=round(delay, 4),
            )
        if self.fallback is not None:
            try:
                response = self.fallback.complete(request)
            except LLMError as exc:
                last_error = exc
            else:
                obs.count("llm.fallbacks")
                obs.event("llm.fallback", provider=self.fallback.name)
                return response
        obs.event(
            "llm.error", level="error", error=type(last_error).__name__
        )
        raise last_error

    def _next_delay(self, attempt: int, error: LLMError, rng) -> float:
        cap = self.retry.backoff_cap(attempt)
        delay = cap * rng.random() if self.retry.jitter == "full" else cap
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay
