"""Tests for retry/backoff, the circuit breaker, and the fallback ladder.

Everything runs on :class:`FakeClock` — no real sleeps — and the jittered
backoff sequence is reproduced exactly from the same derived RNG stream
the wrapper uses.
"""

import pytest

from repro.llm import (
    BreakerPolicy,
    CachingLLM,
    CircuitBreaker,
    CircuitOpenError,
    FakeClock,
    LLMRequest,
    LLMResponse,
    RateLimitError,
    ResilientLLM,
    RetryPolicy,
    ServerError,
    TruncatedCompletion,
)
from repro.llm.degrade import run_ladder
from repro.obs import Observer
from repro.utils.rng import derive_rng


class FlakyLLM:
    """Raises the scripted errors in order, then answers forever."""

    name = "flaky"

    def __init__(self, errors=()):
        self.errors = list(errors)
        self.calls = 0

    def complete(self, request: LLMRequest) -> LLMResponse:
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return LLMResponse(texts=["SELECT 1"], prompt_tokens=10, output_tokens=5)


def request() -> LLMRequest:
    return LLMRequest(prompt="q")


class TestBackoff:
    def test_jittered_exponential_sequence(self):
        """Sleeps match full-jitter exponentials from the derived RNG."""
        clock = FakeClock()
        retry = RetryPolicy(
            max_attempts=4, base_delay=1.0, max_delay=8.0, deadline=None
        )
        llm = ResilientLLM(
            FlakyLLM([ServerError()] * 10),
            retry=retry,
            breaker=BreakerPolicy(failure_threshold=100),
            clock=clock,
            seed=5,
        )
        with pytest.raises(ServerError):
            llm.complete(request())
        rng = derive_rng(5, "backoff", 0)
        expected = [cap * rng.random() for cap in (1.0, 2.0, 4.0)]
        assert clock.sleeps == expected

    def test_unjittered_sequence_is_pure_exponential(self):
        clock = FakeClock()
        retry = RetryPolicy(
            max_attempts=4, base_delay=1.0, max_delay=8.0,
            jitter="none", deadline=None,
        )
        llm = ResilientLLM(
            FlakyLLM([ServerError()] * 10), retry=retry, clock=clock
        )
        with pytest.raises(ServerError):
            llm.complete(request())
        assert clock.sleeps == [1.0, 2.0, 4.0]

    def test_max_delay_caps_backoff(self):
        clock = FakeClock()
        retry = RetryPolicy(
            max_attempts=5, base_delay=1.0, max_delay=2.0,
            jitter="none", deadline=None,
        )
        llm = ResilientLLM(
            FlakyLLM([ServerError()] * 10), retry=retry, clock=clock
        )
        with pytest.raises(ServerError):
            llm.complete(request())
        assert clock.sleeps == [1.0, 2.0, 2.0, 2.0]

    def test_retry_after_floors_the_delay(self):
        clock = FakeClock()
        retry = RetryPolicy(max_attempts=2, base_delay=0.1, deadline=None)
        llm = ResilientLLM(
            FlakyLLM([RateLimitError(retry_after=3.0)]),
            retry=retry,
            clock=clock,
        )
        response = llm.complete(request())
        assert response.text == "SELECT 1"
        assert clock.sleeps == [3.0]

    def test_same_seed_same_backoff_sequence(self):
        def run():
            clock = FakeClock()
            llm = ResilientLLM(
                FlakyLLM([ServerError()] * 10),
                retry=RetryPolicy(max_attempts=4, deadline=None),
                breaker=BreakerPolicy(failure_threshold=100),
                clock=clock,
                seed=21,
            )
            with pytest.raises(ServerError):
                llm.complete(request())
            return clock.sleeps

        # Bit-identical waits across two fresh wrappers with the same seed.
        assert run() == run()


class TestRetryOutcomes:
    def test_transparent_pass_through_on_success(self):
        inner = FlakyLLM()
        clock = FakeClock()
        llm = ResilientLLM(inner, clock=clock)
        response = llm.complete(request())
        assert response.text == "SELECT 1"
        assert inner.calls == 1
        assert clock.sleeps == []
        assert llm.last_stats.outcome == "ok"
        assert llm.last_stats.retries == 0

    def test_recovers_after_transient_errors(self):
        inner = FlakyLLM([ServerError(), RateLimitError()])
        llm = ResilientLLM(inner, clock=FakeClock())
        response = llm.complete(request())
        assert response.text == "SELECT 1"
        assert inner.calls == 3
        assert llm.last_stats.attempts == 3
        assert llm.last_stats.retries == 2
        assert llm.stats.retries == 2
        assert llm.stats.requests == 1

    def test_deadline_stops_retrying(self):
        clock = FakeClock()
        retry = RetryPolicy(
            max_attempts=10, base_delay=10.0, jitter="none", deadline=5.0
        )
        llm = ResilientLLM(
            FlakyLLM([ServerError()] * 20), retry=retry, clock=clock
        )
        with pytest.raises(ServerError):
            llm.complete(request())
        assert llm.last_stats.deadline_exhausted
        assert clock.sleeps == []  # first backoff (10s) already over budget

    def test_truncation_reraised_immediately(self):
        clock = FakeClock()
        inner = FlakyLLM([TruncatedCompletion(partial_text="SEL")])
        llm = ResilientLLM(inner, clock=clock)
        with pytest.raises(TruncatedCompletion):
            llm.complete(request())
        assert inner.calls == 1
        assert clock.sleeps == []
        assert llm.last_stats.outcome == "truncated"
        # Not a provider outage: the breaker stays untouched.
        assert llm.breaker.state == "closed"

    def test_fallback_provider_gets_one_shot(self):
        primary = FlakyLLM([ServerError()] * 20)
        fallback = FlakyLLM()
        llm = ResilientLLM(
            primary,
            retry=RetryPolicy(max_attempts=2, deadline=None),
            fallback=fallback,
            clock=FakeClock(),
        )
        response = llm.complete(request())
        assert response.text == "SELECT 1"
        assert fallback.calls == 1
        assert llm.last_stats.fallback_used
        assert llm.last_stats.outcome == "fallback"
        assert llm.stats.fallback_successes == 1


class TestAttemptSpans:
    def test_attempt_spans_carry_their_outcome(self):
        """One closed `llm.attempt` span per provider attempt, tagged
        `ok`, `truncated`, or the error type."""
        llm = ResilientLLM(
            FlakyLLM([ServerError(), RateLimitError()]), clock=FakeClock()
        )
        truncating = ResilientLLM(
            FlakyLLM([TruncatedCompletion(partial_text="SEL")]),
            clock=FakeClock(),
        )
        observer = Observer()
        with observer.activate():
            llm.complete(request())
            with pytest.raises(TruncatedCompletion):
                truncating.complete(request())
        attempts = [
            s for s in observer.tracer.spans() if s.name == "llm.attempt"
        ]
        assert [s.attrs for s in attempts] == [
            {"attempt": 1, "outcome": "ServerError"},
            {"attempt": 2, "outcome": "RateLimitError"},
            {"attempt": 3, "outcome": "ok"},
            {"attempt": 1, "outcome": "truncated"},
        ]
        assert all(s.end is not None for s in attempts)
        assert observer.tracer.current_span() is None


class TestRetryAttribution:
    def test_wrapped_resilient_llm_charges_the_task(self):
        """A `ResilientLLM` anywhere under the approach's LLM (here under
        a `CachingLLM`) adds its retries to the ladder's own count."""
        llm = CachingLLM(
            ResilientLLM(
                FlakyLLM([ServerError(), RateLimitError()]),
                clock=FakeClock(),
            )
        )
        outcome = run_ladder(llm, [request])
        assert outcome.ok
        assert outcome.retries == 2
        # A cache hit makes no provider call and so no retry.
        assert run_ladder(llm, [request]).retries == 0


class TestCircuitBreaker:
    def test_full_transition_cycle(self):
        """closed → open → half-open → closed, in that order."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, recovery_time=30.0), clock
        )
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.sleep(30.0)
        assert breaker.allow()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert breaker.openings == 1

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, recovery_time=10.0), clock
        )
        breaker.record_failure()
        clock.sleep(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.openings == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2), FakeClock()
        )
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_breaker_short_circuits_requests(self):
        clock = FakeClock()
        inner = FlakyLLM([ServerError()] * 20)
        llm = ResilientLLM(
            inner,
            retry=RetryPolicy(max_attempts=1, deadline=None),
            breaker=BreakerPolicy(failure_threshold=2, recovery_time=30.0),
            clock=clock,
        )
        for _ in range(2):
            with pytest.raises(ServerError):
                llm.complete(request())
        assert llm.breaker.state == "open"
        calls_before = inner.calls
        with pytest.raises(CircuitOpenError):
            llm.complete(request())
        assert inner.calls == calls_before  # provider never touched

    def test_breaker_recovers_through_wrapper(self):
        clock = FakeClock()
        inner = FlakyLLM([ServerError(), ServerError()])
        llm = ResilientLLM(
            inner,
            retry=RetryPolicy(max_attempts=1, deadline=None),
            breaker=BreakerPolicy(failure_threshold=2, recovery_time=30.0),
            clock=clock,
        )
        for _ in range(2):
            with pytest.raises(ServerError):
                llm.complete(request())
        clock.sleep(30.0)
        response = llm.complete(request())  # half-open probe succeeds
        assert response.text == "SELECT 1"
        assert llm.breaker.state == "closed"
        assert llm.last_stats.breaker_transitions == [
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_open_breaker_falls_back(self):
        clock = FakeClock()
        primary = FlakyLLM([ServerError()] * 20)
        llm = ResilientLLM(
            primary,
            retry=RetryPolicy(max_attempts=1, deadline=None),
            breaker=BreakerPolicy(failure_threshold=1, recovery_time=60.0),
            fallback=FlakyLLM(),
            clock=clock,
        )
        first = llm.complete(request())  # primary fails, fallback answers
        assert first.text == "SELECT 1"
        assert llm.breaker.state == "open"
        second = llm.complete(request())  # breaker open: straight to fallback
        assert second.text == "SELECT 1"
        assert llm.last_stats.fallback_used
        assert primary.calls == 1
