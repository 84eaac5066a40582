"""Tests for retry/backoff, the circuit breaker, and the fallback ladder.

Everything runs on :class:`FakeClock` — no real sleeps — and the jittered
backoff sequence is reproduced exactly from the same derived RNG stream
the wrapper uses.
"""

from collections.abc import Collection

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
from tests.observed import observed


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
        response, metrics = observed(lambda: llm.complete(request()))
        assert response.text == "SELECT 1"
        assert inner.calls == 1
        assert clock.sleeps == []
        assert metrics.counter("llm.attempts") == 1
        assert metrics.counter("llm.retries") == 0

    def test_recovers_after_transient_errors(self):
        inner = FlakyLLM([ServerError(), RateLimitError()])
        llm = ResilientLLM(inner, clock=FakeClock())
        response, metrics = observed(lambda: llm.complete(request()))
        assert response.text == "SELECT 1"
        assert inner.calls == 3
        assert metrics.counter("llm.attempts") == 3
        assert metrics.counter("llm.retries") == 2

    def test_deadline_stops_retrying(self):
        clock = FakeClock()
        retry = RetryPolicy(
            max_attempts=10, base_delay=10.0, jitter="none", deadline=5.0
        )
        inner = FlakyLLM([ServerError()] * 20)
        llm = ResilientLLM(inner, retry=retry, clock=clock)
        with pytest.raises(ServerError):
            llm.complete(request())
        # The first backoff (10 s) is already over budget: one attempt,
        # no wait, although nine more attempts were allowed.
        assert inner.calls == 1
        assert clock.sleeps == []

    def test_truncation_reraised_immediately(self):
        clock = FakeClock()
        inner = FlakyLLM([TruncatedCompletion(partial_text="SEL")])
        llm = ResilientLLM(inner, clock=clock)

        def call():
            with pytest.raises(TruncatedCompletion):
                llm.complete(request())

        _, metrics = observed(call)
        assert inner.calls == 1
        assert clock.sleeps == []
        assert metrics.counter("llm.attempts") == 1
        assert metrics.counter("llm.retries") == 0
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
        response, metrics = observed(lambda: llm.complete(request()))
        assert response.text == "SELECT 1"
        assert primary.calls == 2
        assert fallback.calls == 1
        assert metrics.counter("llm.fallbacks") == 1


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

        def cycle():
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

        _, metrics = observed(cycle)
        assert metrics.counters == {
            "llm.breaker.opens": 1,
            "llm.breaker.transitions{from=closed,to=open}": 1,
            "llm.breaker.transitions{from=open,to=half_open}": 1,
            "llm.breaker.transitions{from=half_open,to=closed}": 1,
        }

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, recovery_time=10.0), clock
        )

        def reopen():
            breaker.record_failure()
            clock.sleep(10.0)
            assert breaker.allow()
            breaker.record_failure()

        _, metrics = observed(reopen)
        assert breaker.state == "open"
        assert metrics.counter("llm.breaker.opens") == 2
        assert metrics.counter(
            "llm.breaker.transitions", **{"from": "half_open", "to": "open"}
        ) == 1

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
        # The half-open probe succeeds.
        response, metrics = observed(lambda: llm.complete(request()))
        assert response.text == "SELECT 1"
        assert llm.breaker.state == "closed"
        assert metrics.counter_total("llm.breaker.transitions") == 2
        assert metrics.counter(
            "llm.breaker.transitions", **{"from": "open", "to": "half_open"}
        ) == 1
        assert metrics.counter(
            "llm.breaker.transitions", **{"from": "half_open", "to": "closed"}
        ) == 1

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
        # Breaker open: straight to the fallback.
        second, metrics = observed(lambda: llm.complete(request()))
        assert second.text == "SELECT 1"
        assert metrics.counter("llm.fallbacks") == 1
        assert metrics.counter("llm.attempts") == 0
        assert primary.calls == 1

    def test_long_run_keeps_no_growing_state(self):
        """1,000 open → half-open → closed cycles through one wrapper:
        the registry counts every transition, and no attribute of the
        wrapper or its breaker holds a container that grew."""

        class AlternatingLLM:
            """Fails every odd call, answers every even one."""

            name = "alternating"
            calls = 0

            def complete(self, request):
                self.calls += 1
                if self.calls % 2:
                    raise ServerError()
                return LLMResponse(texts=["SELECT 1"])

        clock = FakeClock()
        llm = ResilientLLM(
            AlternatingLLM(),
            retry=RetryPolicy(max_attempts=1, deadline=None),
            breaker=BreakerPolicy(failure_threshold=1, recovery_time=30.0),
            clock=clock,
        )

        def sizes():
            return {
                (type(owner).__name__, name): len(value)
                for owner in (llm, llm.breaker)
                for name, value in vars(owner).items()
                if isinstance(value, Collection)
                and not isinstance(value, str)
            }

        def cycles():
            for _ in range(1000):
                with pytest.raises(ServerError):
                    llm.complete(request())  # closed → open
                clock.now += 30.0
                llm.complete(request())  # open → half-open → closed

        before = sizes()
        _, metrics = observed(cycles)
        assert sizes() == before
        assert llm.breaker.state == "closed"
        assert metrics.counter("llm.breaker.opens") == 1000
        assert metrics.counter_total("llm.breaker.transitions") == 3000
