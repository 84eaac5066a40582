"""The continuous-telemetry layer: ledger, SLO burn rates, trace store.

All clocks are :class:`FakeClock`-driven: known traffic in, exact
windowed/ledger/burn truth out.
"""

import pytest

from repro.llm.resilient import FakeClock
from repro.obs import Observer
from repro.obs.live import (
    RETAIN_ERROR,
    RETAIN_SAMPLED,
    RETAIN_SLOW,
    SNAPSHOTS_KEPT,
    CostLedger,
    LiveTelemetry,
    SLOTracker,
    TraceStore,
)


class FakeResponse:
    """The duck-typed slice of TranslateResponse the ledger reads."""

    def __init__(self, prompt_tokens=100, output_tokens=20, llm_calls=3,
                 repair_rounds=0, shed=False):
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        self.llm_calls = llm_calls
        self.repair_rounds = repair_rounds
        self.shed = shed


class TestCostLedger:
    def test_accumulates_per_tenant(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.record("acme", prompt_tokens=100, completion_tokens=10,
                      llm_calls=3)
        ledger.record("acme", prompt_tokens=50, completion_tokens=5,
                      llm_calls=1, repair_rounds=2)
        ledger.record("beta", error=True, shed=True)
        acme = ledger.usage("acme")
        assert acme["requests"] == 2
        assert acme["prompt_tokens"] == 150
        assert acme["completion_tokens"] == 15
        assert acme["total_tokens"] == 165
        assert acme["llm_calls"] == 4
        assert acme["repair_rounds"] == 2
        beta = ledger.usage("beta")
        assert beta["errors"] == 1 and beta["shed"] == 1
        assert ledger.usage("nobody") is None

    def test_cache_hits_counted(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.record("acme", llm_calls=0, cache_hit=True)
        ledger.record("acme", llm_calls=2)
        assert ledger.usage("acme")["cache_hits"] == 1

    def test_periodic_snapshots(self):
        clock = FakeClock()
        ledger = CostLedger(clock=clock)
        clock.now += 30.0
        ledger.record("acme", prompt_tokens=10)
        assert ledger.snapshots() == [], "no snapshot before a minute"
        for _ in range(SNAPSHOTS_KEPT + 5):
            clock.now += 60.0
            ledger.record("acme", prompt_tokens=10)
        history = ledger.snapshots()
        assert len(history) == SNAPSHOTS_KEPT, "history is bounded"
        tenant_history = ledger.snapshots("acme")
        # Monotone: later snapshots carry strictly more spend.
        tokens = [snap["usage"]["prompt_tokens"] for snap in tenant_history]
        assert tokens == sorted(tokens)
        assert tokens[-1] == 10 * (SNAPSHOTS_KEPT + 6)

    def test_totals_sorted(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.record("zeta")
        ledger.record("acme")
        assert list(ledger.totals()) == ["acme", "zeta"]


class TestSLOTracker:
    def tracker(self, clock, emit=None):
        return SLOTracker(availability=0.9, latency_ms=100.0, clock=clock,
                          emit=emit)

    def test_healthy_traffic_no_burn(self):
        clock = FakeClock()
        events = []
        tracker = self.tracker(clock,
                               emit=lambda name, **f: events.append(name))
        for _ in range(100):
            clock.now += 0.5
            tracker.record("acme", latency_ms=10.0, error=False)
        status = tracker.status()["acme"]
        assert status["availability"]["state"] == "ok"
        assert status["latency"]["state"] == "ok"
        assert events == []

    def test_burn_event_is_edge_triggered(self):
        clock = FakeClock()
        events = []
        tracker = self.tracker(
            clock, emit=lambda name, **fields: events.append((name, fields)),
        )
        # 50% errors against a 10% budget: burn = 5x on both windows.
        for i in range(40):
            clock.now += 0.25
            tracker.record("acme", latency_ms=10.0, error=i % 2 == 0)
        burns = [e for e in events if e[0] == "slo.burn"]
        assert len(burns) == 1, "edge-triggered: one alert, not per request"
        name, fields = burns[0]
        assert fields["tenant"] == "acme"
        assert fields["objective"] == "availability"
        assert fields["fast_burn"] > 1.0
        assert tracker.status()["acme"]["availability"]["state"] == "burning"

    def test_recovery_event_when_burn_clears(self):
        clock = FakeClock()
        events = []
        tracker = self.tracker(
            clock, emit=lambda name, **fields: events.append(name),
        )
        for _ in range(20):
            clock.now += 1.0
            tracker.record("acme", latency_ms=10.0, error=True)
        assert "slo.burn" in events
        # The fast window clears first; flood it with good traffic.
        for _ in range(500):
            clock.now += 0.1
            tracker.record("acme", latency_ms=10.0, error=False)
        assert "slo.recovered" in events

    def test_latency_objective_independent(self):
        clock = FakeClock()
        tracker = self.tracker(clock)
        for _ in range(50):
            clock.now += 1.0
            tracker.record("acme", latency_ms=500.0, error=False)
        status = tracker.status()["acme"]
        assert status["latency"]["state"] == "burning"
        assert status["availability"]["state"] == "ok"

    def test_tenants_burn_independently(self):
        clock = FakeClock()
        tracker = self.tracker(clock)
        for _ in range(50):
            clock.now += 1.0
            tracker.record("slow", latency_ms=500.0, error=False)
            tracker.record("acme", latency_ms=50.0, error=False)
        status = tracker.status()
        assert status["slow"]["latency"]["state"] == "burning"
        assert status["acme"]["latency"]["state"] == "ok"
        assert status["acme"]["latency"]["target"] == 0.99

    def test_objectives_validated(self):
        for settings in ({"availability": 1.0}, {"availability": 0.0},
                         {"latency_ms": 0.0}, {"latency_ms": -1.0}):
            with pytest.raises(ValueError):
                SLOTracker(**settings)


def spans_for(request_id):
    return [{"type": "span", "id": request_id, "parent": None,
             "name": "task", "lane": request_id, "seq": 0,
             "start": 0.0, "end": 1.0, "attrs": {}}]


class TestTraceStore:
    def test_errors_and_slow_always_retained(self):
        store = TraceStore(capacity=8, slow_ms=100.0)
        assert store.offer("e1", "acme", 500, 10.0,
                           spans_for("e1")) == RETAIN_ERROR
        assert store.offer("s1", "acme", 200, 250.0,
                           spans_for("s1")) == RETAIN_SLOW
        assert store.get("e1")["retained"] == RETAIN_ERROR
        assert store.get("s1")["retained"] == RETAIN_SLOW

    def test_healthy_traffic_sampled(self):
        store = TraceStore(capacity=100, slow_ms=1000.0)
        verdicts = {
            store.offer(f"r{i}", "acme", 200, 5.0, spans_for(f"r{i}"))
            for i in range(100)
        }
        assert verdicts == {RETAIN_SAMPLED}, "every healthy trace is kept"
        stats = store.stats()
        assert stats["seen"] == stats["stored"] == 100
        assert stats["retained"] == {RETAIN_SAMPLED: 100}

    def test_eviction_prefers_sampled_over_errors(self):
        store = TraceStore(capacity=4, slow_ms=1000.0)
        store.offer("err", "acme", 500, 5.0, spans_for("err"))
        for i in range(10):
            store.offer(f"ok{i}", "acme", 200, 5.0, spans_for(f"ok{i}"))
        assert store.get("err") is not None, "errors survive healthy churn"
        assert store.stats()["stored"] == 4
        assert store.stats()["evicted"] == 7

    def test_replayed_request_id_replaces(self):
        store = TraceStore(capacity=4)
        store.offer("r", "acme", 200, 5.0, spans_for("r"))
        store.offer("r", "acme", 500, 5.0, spans_for("r"))
        assert store.stats()["stored"] == 1
        assert store.get("r")["retained"] == RETAIN_ERROR

    def test_spans_round_trip_unchanged(self):
        store = TraceStore(capacity=4)
        spans = spans_for("x")
        store.offer("x", "acme", 200, 5.0, spans)
        assert store.get("x")["spans"] == spans


class TestLiveTelemetry:
    def test_record_request_feeds_all_parts(self):
        clock = FakeClock()
        live = LiveTelemetry(window_s=30.0, clock=clock)
        for _ in range(10):
            clock.now += 1.0
            live.record_request("translate", "acme", 0.040, 200,
                                response=FakeResponse())
        payload = live.payload()
        counters = payload["windows"]["counters"]
        # Per-tenant counts live in the ledger, not in a window.
        assert list(counters) == ["serve.requests{endpoint=translate}"]
        assert counters["serve.requests{endpoint=translate}"]["total"] == 10.0
        hist = payload["windows"]["histograms"][
            "serve.latency_ms{endpoint=translate}"
        ]
        assert hist["count"] == 10
        assert 25.0 <= hist["p50"] <= 50.0
        assert payload["tenants"]["acme"]["llm_calls"] == 30

    def test_unknown_tenant_not_tracked(self):
        live = LiveTelemetry(clock=FakeClock())
        live.record_request("translate", "ghost", 0.01, 404,
                            track_tenant=False)
        payload = live.payload()
        assert payload["tenants"] == {}
        assert payload["windows"]["counters"][
            "serve.errors{endpoint=translate}"
        ]["total"] == 1.0

    def test_zero_llm_calls_is_a_cache_hit(self):
        live = LiveTelemetry(clock=FakeClock())
        live.record_request("translate", "acme", 0.01, 200,
                            response=FakeResponse(llm_calls=0))
        assert live.payload()["tenants"]["acme"]["cache_hits"] == 1

    def test_capture_reads_lane_and_prunes(self):
        observer = Observer(seed=0, log_level="info")
        with observer.task("req-1"):
            pass
        live = LiveTelemetry(observer, clock=FakeClock())
        reason = live.capture("req-1", "acme", 200, 0.01)
        assert reason == RETAIN_SAMPLED
        entry = live.traces.get("req-1")
        assert entry["spans"], "the task span was captured"
        assert all(s["lane"] == "req-1" for s in entry["spans"])
        assert observer.tracer.lane_spans("req-1") == [], "lane pruned"

    def test_slo_burn_event_reaches_observer_log(self):
        clock = FakeClock()
        observer = Observer(seed=0, log_level="info")
        live = LiveTelemetry(observer, slo_availability=0.9, clock=clock)
        for _ in range(30):
            clock.now += 1.0
            live.record_request("translate", "acme", 0.01, 500)
        names = [e.name for e in observer.logger.events()]
        assert "slo.burn" in names