"""Admission control on an injectable clock — no real sleeping."""

import pytest

from repro.llm.resilient import FakeClock
from repro.serve import (
    ADMIT,
    REJECT,
    SHED,
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        clock.now += 0.5  # 0.5s * 2/s = 1 token back
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.now += 100.0
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestPolicy:
    def test_hard_cap_must_cover_soft_cap(self):
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionPolicy(shed_inflight=10, max_inflight=5)

    @pytest.mark.parametrize("field,value", [
        ("rate", 0.0), ("rate", -1.0), ("burst", 0), ("burst", -3),
    ])
    def test_rate_and_burst_must_be_positive(self, field, value):
        # Caught at configuration time, not by the first request's
        # token bucket in a handler thread.
        with pytest.raises(ValueError, match=field):
            AdmissionPolicy(**{field: value})


class TestController:
    def make(self, **kwargs):
        clock = FakeClock()
        policy = AdmissionPolicy(**kwargs)
        return AdmissionController(policy, clock=clock), clock

    def test_admits_within_budget(self):
        controller, _ = self.make(rate=10.0, burst=5)
        with controller.request("t") as verdict:
            assert verdict == ADMIT
            assert controller.inflight == 1
        assert controller.inflight == 0

    def test_sheds_when_bucket_empty(self):
        controller, _ = self.make(rate=1.0, burst=2)
        verdicts = [controller.acquire("t") for _ in range(3)]
        assert verdicts == [ADMIT, ADMIT, SHED]
        # Shed requests still hold an in-flight slot: they are served.
        assert controller.inflight == 3
        for _ in verdicts:
            controller.release()

    def test_bucket_refill_restores_admission(self):
        controller, clock = self.make(rate=1.0, burst=1)
        assert controller.acquire("t") == ADMIT
        controller.release()
        assert controller.acquire("t") == SHED
        controller.release()
        clock.now += 1.0
        assert controller.acquire("t") == ADMIT
        controller.release()

    def test_sheds_above_soft_depth_cap(self):
        controller, _ = self.make(
            rate=1000.0, burst=1000, shed_inflight=2, max_inflight=10
        )
        assert controller.acquire("t") == ADMIT
        assert controller.acquire("t") == ADMIT
        assert controller.acquire("t") == SHED
        for _ in range(3):
            controller.release()

    def test_rejects_at_hard_cap_only(self):
        controller, _ = self.make(
            rate=1000.0, burst=1000, shed_inflight=1, max_inflight=3
        )
        verdicts = [controller.acquire("t") for _ in range(4)]
        assert verdicts == [ADMIT, SHED, SHED, REJECT]
        # The reject took no slot; the three admitted/shed did.
        assert controller.inflight == 3
        for _ in range(3):
            controller.release()
        assert controller.acquire("t") == ADMIT
        controller.release()

    def test_reject_via_context_manager_takes_no_slot(self):
        controller, _ = self.make(
            rate=1000.0, burst=1000, shed_inflight=1, max_inflight=1
        )
        assert controller.acquire("t") == ADMIT
        with controller.request("t") as verdict:
            assert verdict == REJECT
        assert controller.inflight == 1
        controller.release()

    def test_buckets_are_per_tenant(self):
        controller, _ = self.make(rate=1.0, burst=1)
        assert controller.acquire("a") == ADMIT
        # Tenant b has its own untouched bucket.
        assert controller.acquire("b") == ADMIT
        assert controller.acquire("a") == SHED
        for _ in range(3):
            controller.release()

    def test_peak_inflight_high_water_mark(self):
        controller, _ = self.make(rate=1000.0, burst=1000)
        for _ in range(4):
            controller.acquire("t")
        for _ in range(4):
            controller.release()
        assert controller.inflight == 0
        assert controller.peak_inflight == 4
