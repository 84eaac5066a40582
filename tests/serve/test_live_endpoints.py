"""The continuous-telemetry endpoints: trace, usage, status, exposition.

Drives a real ``ReproServer`` over an ephemeral port (like
``test_endpoints.py``) with the live layer wired in, plus direct
service-level checks with a ``FakeClock`` so windowed truth is verified
against known traffic.
"""

import io
import json
from http.client import HTTPConnection

import pytest

from repro.llm.resilient import FakeClock
from repro.obs import LiveTelemetry, Observer
from repro.obs.prom import parse_prometheus_text
from repro.obs.top import render_dashboard
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    NL2SQLService,
    ReproServer,
    Tenant,
    TenantRegistry,
)
from tests.serve.test_endpoints import get, post


@pytest.fixture()
def live_clock():
    return FakeClock()


@pytest.fixture()
def live_service(translator, dev_set, live_clock):
    """A single-tenant service with the full live-telemetry layer."""
    registry = TenantRegistry()
    registry.add(Tenant(tenant_id="acme", data=dev_set,
                        translator=translator))
    observer = Observer(seed=0, log_level="info")
    svc = NL2SQLService(
        registry,
        AdmissionController(AdmissionPolicy(rate=1000.0, burst=1000)),
        observer=observer,
        live=LiveTelemetry(observer, clock=live_clock),
    )
    yield svc
    svc.close()


@pytest.fixture()
def server(live_service):
    started = ReproServer(live_service, port=0).start()
    yield started
    started.shutdown()
    started.server_close()


@pytest.fixture()
def client(server):
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=10)
    yield conn
    conn.close()


def translate(conn, dev_set, request_id=""):
    example = dev_set.examples[0]
    payload = {
        "question": example.question, "db_id": example.db_id,
        "tenant": "acme",
    }
    if request_id:
        payload["request_id"] = request_id
    return post(conn, "/v1/translate", payload)


class TestTraceEndpoint:
    def test_just_served_request_is_retrievable(self, client, dev_set):
        status, _ = translate(client, dev_set, request_id="trace-me")
        assert status == 200
        status, trace = get(client, "/v1/trace/trace-me")
        assert status == 200
        assert trace["request_id"] == "trace-me"
        assert trace["tenant"] == "acme"
        assert trace["schema_version"] == 1
        assert trace["spans"], "span tree captured"
        for span in trace["spans"]:
            assert span["type"] == "span"
            assert span["lane"] == "trace-me"
            assert set(span) == {"type", "id", "parent", "name", "lane",
                                 "seq", "start", "end", "attrs"}
        seqs = [span["seq"] for span in trace["spans"]]
        assert seqs == sorted(seqs)

    def test_unknown_request_id_404(self, client):
        status, data = get(client, "/v1/trace/never-served")
        assert status == 404
        assert data["code"] == "trace_not_found"

    def test_service_without_live_layer_501(self, service):
        status, envelope = service.trace("anything")
        assert status == 501
        assert envelope.code == "unsupported"


class TestUsageEndpoint:
    def test_ledger_tracks_known_traffic(self, client, dev_set):
        for _ in range(3):
            assert translate(client, dev_set)[0] == 200
        status, data = get(client, "/v1/tenants/acme/usage")
        assert status == 200
        assert data["tenant"] == "acme"
        usage = data["usage"]
        assert usage["requests"] == 3
        assert usage["errors"] == 0
        assert usage["prompt_tokens"] > 0
        assert usage["total_tokens"] == (usage["prompt_tokens"]
                                         + usage["completion_tokens"])
        assert usage["llm_calls"] > 0

    def test_unknown_tenant_404(self, client):
        status, data = get(client, "/v1/tenants/ghost/usage")
        assert status == 404
        assert data["code"] == "unknown_tenant"

    def test_service_without_live_layer_501(self, service):
        status, envelope = service.tenant_usage("acme")
        assert status == 501
        assert envelope.code == "unsupported"


class TestStatusEndpoint:
    def test_healthy_service_reports_ok(self, client, dev_set):
        translate(client, dev_set)
        status, data = get(client, "/v1/status")
        assert status == 200
        assert data["status"] == "ok"
        assert data["burning"] == []
        assert data["slo"]["acme"]["availability"]["state"] == "ok"
        assert data["admission"]["policy"]["max_inflight"] > 0

    def test_error_flood_burns_availability(self, live_service, live_clock,
                                            dev_set):
        # Known traffic: every request 500s (unknown db resolves after
        # the tenant, so the tenant ledger sees it) — drive the SLO
        # windows directly for exactness.
        for _ in range(30):
            live_clock.now += 1.0
            live_service.live.record_request("translate", "acme",
                                             0.01, 500)
        _, data = live_service.status()
        assert data["status"] == "burning"
        assert "acme:availability" in data["burning"]


class TestMetricsLiveSection:
    def test_windowed_truth_in_json_payload(self, client, dev_set):
        for _ in range(2):
            translate(client, dev_set)
        status, data = get(client, "/v1/metrics")
        assert status == 200
        live = data["live"]
        counters = live["windows"]["counters"]
        assert counters["serve.requests{endpoint=translate}"]["total"] == 2.0
        hist = live["windows"]["histograms"][
            "serve.latency_ms{endpoint=translate}"
        ]
        assert hist["count"] == 2
        assert "p50" in hist and "p95" in hist and "p99" in hist
        assert live["tenants"]["acme"]["requests"] == 2
        assert live["traces"]["stored"] == 2

    def test_window_expiry_on_fake_clock(self, live_service, live_clock,
                                         dev_set):
        from repro.api.types import TranslateRequest

        example = dev_set.examples[0]
        for _ in range(2):
            status, _ = live_service.translate(TranslateRequest(
                question=example.question, db_id=example.db_id,
                tenant="acme",
            ))
            assert status == 200
        live = live_service.live
        assert live.windows.counter_total(
            "serve.requests", endpoint="translate"
        ) == 2.0
        live_clock.now += live.windows.window_s + 1.0
        # The window forgets; the cumulative ledger does not.
        assert live.windows.counter_total(
            "serve.requests", endpoint="translate"
        ) == 0.0
        assert live.ledger.usage("acme")["requests"] == 2

    def test_json_remains_the_default(self, client):
        client.request("GET", "/v1/metrics")
        response = client.getresponse()
        assert response.getheader("Content-Type") == "application/json"
        json.loads(response.read())


class TestPrometheusNegotiation:
    def test_text_plain_gets_exposition(self, client, dev_set):
        translate(client, dev_set)
        client.request("GET", "/v1/metrics", headers={"Accept": "text/plain"})
        response = client.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "version=0.0.4" in response.getheader("Content-Type")
        text = response.read().decode("utf-8")
        parsed = parse_prometheus_text(text)
        names = {name for name, _, _ in parsed["samples"]}
        assert "serve_requests_total" in names
        assert any(n.startswith("serve_latency_ms") for n in names)


class TestTopDashboard:
    def test_renders_from_server_payloads(self, client, dev_set):
        translate(client, dev_set)
        _, metrics = get(client, "/v1/metrics")
        _, status = get(client, "/v1/status")
        screen = render_dashboard(metrics, status)
        assert "repro top" in screen
        assert "translate" in screen
        assert "acme" in screen
        assert "qps" in screen
        assert "p99" in screen

    def test_run_top_once_against_live_server(self, server, client, dev_set):
        from repro.obs.top import run_top

        translate(client, dev_set)
        host, port = server.address
        out = io.StringIO()
        code = run_top(f"http://{host}:{port}", once=True, out=out)
        assert code == 0
        assert "repro top" in out.getvalue()

    def test_run_top_unreachable_url_fails_loudly(self):
        from repro.obs.top import run_top

        out = io.StringIO()
        code = run_top("http://127.0.0.1:9", once=True, out=out)
        assert code == 1
        assert "cannot reach" in out.getvalue()

    def test_cli_has_top_command(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["top", "--once"])
        assert args.once
        assert args.func.__name__ == "_cmd_top"

#: Every POST endpoint crossed with every outcome it can produce.
RECORDED_OUTCOMES = [
    (endpoint, outcome, status)
    for endpoint in ("translate", "explain", "execute")
    for outcome, status in (("ok", 200), ("unknown_tenant", 404),
                            ("unknown_database", 404), ("overloaded", 429))
] + [("explain", "unsupported", 501)]


class TestEachRequestRecordedOnce:
    """One request, one record: registry, window, and ledger agree."""

    @pytest.fixture(scope="class")
    def plain_translator(self, train_set):
        from repro import api
        from repro.llm import MockLLM, profile_by_name

        return api.create(
            "zero", llm=MockLLM(profile_by_name("gpt4")), train=train_set
        )

    @staticmethod
    def _request(endpoint, dev_set, tenant, db_id):
        from repro.api.types import ExecuteRequest, TranslateRequest

        if endpoint == "execute":
            return ExecuteRequest(sql="SELECT 1", db_id=db_id, tenant=tenant)
        return TranslateRequest(question=dev_set.examples[0].question,
                                db_id=db_id, tenant=tenant)

    @staticmethod
    def _counts(service, endpoint, tenant):
        live = service.live
        return {
            "registry": service.observer.metrics.snapshot().counter(
                "serve.requests", endpoint=endpoint, tenant=tenant
            ),
            "windowed": live.windows.counter_total(
                "serve.requests", endpoint=endpoint
            ),
            "ledger": sum(usage["requests"]
                          for usage in live.ledger.totals().values()),
        }

    @pytest.mark.parametrize("endpoint,outcome,expected", RECORDED_OUTCOMES)
    def test_recorded_exactly_once(self, live_service, dev_set,
                                   plain_translator, endpoint, outcome,
                                   expected):
        tenant = {"unknown_tenant": "ghost",
                  "unsupported": "plain"}.get(outcome, "acme")
        if outcome == "unsupported":
            live_service.registry.add(Tenant(
                tenant_id="plain", data=dev_set, translator=plain_translator,
            ))
        db_id = ("no_such_db" if outcome == "unknown_database"
                 else dev_set.examples[0].db_id)
        request = self._request(endpoint, dev_set, tenant, db_id)
        admission = live_service.admission
        held = admission.policy.max_inflight if outcome == "overloaded" else 0
        for _ in range(held):
            admission.acquire("holder")
        before = self._counts(live_service, endpoint, tenant)
        try:
            status, _ = getattr(live_service, endpoint)(request)
        finally:
            for _ in range(held):
                admission.release()
        after = self._counts(live_service, endpoint, tenant)

        assert status == expected
        assert after["registry"] - before["registry"] == 1
        assert after["windowed"] - before["windowed"] == 1
        known_tenant = outcome != "unknown_tenant"
        assert after["ledger"] - before["ledger"] == int(known_tenant)
        if not known_tenant:
            assert live_service.live.ledger.usage(tenant) is None
