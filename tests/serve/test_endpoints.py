"""HTTP endpoint round-trips over an ephemeral port with MockLLM."""

import json
import socket
from http.client import HTTPConnection

import pytest

from repro.api.runtime import make_live
from repro.api.types import (
    ErrorEnvelope,
    ExecuteResponse,
    ExplainResponse,
    TranslateResponse,
)
from repro.obs import Observer
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    NL2SQLService,
    ReproServer,
    Tenant,
    TenantRegistry,
)


@pytest.fixture()
def client(server):
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=10)
    yield conn
    conn.close()


def post(conn, path, payload):
    conn.request(
        "POST", path, json.dumps(payload),
        {"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestTranslate:
    def test_round_trip(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = TranslateResponse.from_dict(data)
        assert response.sql.upper().startswith("SELECT")
        assert response.tenant == "acme"
        assert response.db_id == example.db_id
        assert response.latency_ms >= 0.0
        assert not response.shed

    def test_assigns_deterministic_request_ids(self, client, dev_set):
        example = dev_set.examples[0]
        payload = {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        }
        _, first = post(client, "/v1/translate", payload)
        _, second = post(client, "/v1/translate", payload)
        assert first["request_id"] == "acme-000001"
        assert second["request_id"] == "acme-000002"

    def test_explicit_request_id_echoes(self, client, dev_set):
        example = dev_set.examples[0]
        _, data = post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme", "request_id": "mine-1",
        })
        assert data["request_id"] == "mine-1"

    def test_unknown_tenant_404(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "nobody",
        })
        assert status == 404
        envelope = ErrorEnvelope.from_dict(data)
        assert envelope.code == "unknown_tenant"

    def test_unknown_database_404(self, client):
        status, data = post(client, "/v1/translate", {
            "question": "how many", "db_id": "no_such_db", "tenant": "acme",
        })
        assert status == 404
        assert ErrorEnvelope.from_dict(data).code == "unknown_database"

    def test_malformed_body_400(self, client):
        client.request(
            "POST", "/v1/translate", "{not json",
            {"Content-Type": "application/json"},
        )
        response = client.getresponse()
        data = json.loads(response.read())
        assert response.status == 400
        assert ErrorEnvelope.from_dict(data).code == "bad_request"

    def test_unknown_wire_field_400(self, client):
        status, data = post(client, "/v1/translate", {
            "question": "q", "db_id": "d", "tenant": "acme", "bogus": 1,
        })
        assert status == 400
        assert "bogus" in data["message"]

    @pytest.mark.parametrize("field, value", [
        ("tenant", ["acme"]),
        ("tenant", {"a": 1}),
        ("request_id", ["x"]),
        ("request_id", 7),
    ])
    @pytest.mark.parametrize("path", ["/v1/translate", "/v1/explain"])
    def test_non_string_routing_field_400(self, client, dev_set, path,
                                          field, value):
        example = dev_set.examples[0]
        payload = {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme", field: value,
        }
        status, data = post(client, path, payload)
        assert status == 400
        envelope = ErrorEnvelope.from_dict(data)
        assert envelope.code == "bad_request"
        assert field in envelope.message

    @pytest.mark.parametrize("field", ["question", "request_id"])
    def test_lone_surrogate_400(self, client, dev_set, field):
        example = dev_set.examples[0]
        payload = {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme", field: "x\ud800",
        }
        status, data = post(client, "/v1/translate", payload)
        assert status == 400
        envelope = ErrorEnvelope.from_dict(data)
        assert envelope.code == "bad_request"
        assert field in envelope.message

    def test_boolean_schema_version_400(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme", "schema_version": True,
        })
        assert status == 400
        envelope = ErrorEnvelope.from_dict(data)
        assert envelope.code == "bad_request"
        assert "schema_version" in envelope.message

    def test_unknown_route_404(self, client):
        status, data = post(client, "/v1/nope", {"a": 1})
        assert status == 404
        assert ErrorEnvelope.from_dict(data).code == "not_found"


class TestExplain:
    def test_provenance_round_trip(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/explain", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = ExplainResponse.from_dict(data)
        assert response.skeletons, "PURPLE explain must expose skeletons"
        assert response.pruned_tables
        for demo in response.demonstrations:
            assert set(demo) >= {"index", "db_id", "sql", "skeleton", "level"}

    def test_sql_diagnostics_ride_along(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/explain", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
            "sql": "SELECT bogus_column FROM bogus_table",
        })
        assert status == 200
        response = ExplainResponse.from_dict(data)
        assert response.diagnostics
        assert any(
            d.get("severity") == "error" for d in response.diagnostics
        )

    def test_translator_without_explain_501(self, client, dev_set,
                                            service, train_set):
        from repro import api
        from repro.llm import MockLLM, profile_by_name
        from repro.serve import Tenant

        zero = api.create(
            "zero", llm=MockLLM(profile_by_name("gpt4")), train=train_set
        )
        service.registry.add(
            Tenant(tenant_id="plain", data=dev_set, translator=zero)
        )
        example = dev_set.examples[0]
        status, data = post(client, "/v1/explain", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "plain",
        })
        assert status == 501
        assert ErrorEnvelope.from_dict(data).code == "unsupported"

    def test_lone_surrogate_sql_400(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/explain", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme", "sql": "SELECT \ud800 FROM t",
        })
        assert status == 400
        envelope = ErrorEnvelope.from_dict(data)
        assert envelope.code == "bad_request"
        assert "sql" in envelope.message


class TestExecute:
    def test_rows_round_trip(self, client, dev_set):
        db_id = dev_set.db_ids()[0]
        table = dev_set.database(db_id).schema.tables[0].name
        status, data = post(client, "/v1/execute", {
            "sql": f"SELECT COUNT(*) FROM {table}", "db_id": db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = ExecuteResponse.from_dict(data)
        assert response.error is None
        assert response.row_count == 1
        assert len(response.rows) == 1

    def test_execution_error_is_payload_not_transport(self, client, dev_set):
        db_id = dev_set.db_ids()[0]
        status, data = post(client, "/v1/execute", {
            "sql": "SELECT * FROM definitely_missing", "db_id": db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = ExecuteResponse.from_dict(data)
        assert response.error
        assert response.error_code == "no-such-table"

    def test_lone_surrogate_sql_400(self, client, dev_set):
        status, data = post(client, "/v1/execute", {
            "sql": "SELECT '\ud800'", "db_id": dev_set.db_ids()[0],
            "tenant": "acme",
        })
        assert status == 400
        envelope = ErrorEnvelope.from_dict(data)
        assert envelope.code == "bad_request"
        assert "sql" in envelope.message

    @pytest.mark.parametrize("field, value", [
        ("tenant", ["acme"]),
        ("request_id", ["x"]),
    ])
    def test_non_string_routing_field_400(self, client, dev_set, field,
                                          value):
        status, data = post(client, "/v1/execute", {
            "sql": "SELECT 1", "db_id": dev_set.db_ids()[0],
            "tenant": "acme", field: value,
        })
        assert status == 400
        assert ErrorEnvelope.from_dict(data).code == "bad_request"


class TestGets:
    def test_health(self, client):
        status, data = get(client, "/v1/health")
        assert status == 200
        assert data["status"] == "ok"
        assert data["tenants"]["acme"]["fitted"] is True

    def test_metrics_snapshot(self, client, dev_set):
        example = dev_set.examples[0]
        post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        })
        status, data = get(client, "/v1/metrics")
        assert status == 200
        counters = data["metrics"]["counters"]
        assert counters.get(
            "serve.requests{endpoint=translate,tenant=acme}"
        ) == 1
        assert "admission" in data
        assert data["admission"]["policy"]["max_inflight"] > 0

    def test_keep_alive_connection_reuse(self, client):
        # Both requests ride one HTTP/1.1 connection (the fixture never
        # reconnects); a second round-trip on the same socket proves
        # keep-alive works.
        assert get(client, "/v1/health")[0] == 200
        assert get(client, "/v1/health")[0] == 200

    def test_http09_request_gets_the_bare_body(self, server):
        # HTTP/0.9 has no header block, so the body is written on its own.
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"GET /v1/health\r\n\r\n")
            data = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(data)["status"] == "ok"


@pytest.fixture()
def live_client(translator, dev_set):
    """A live-telemetry server whose tenant ids need percent-encoding."""
    registry = TenantRegistry()
    for tenant_id in ("north pole", "a/b"):
        registry.add(Tenant(
            tenant_id=tenant_id, data=dev_set, translator=translator
        ))
    observer = Observer(seed=0, log_level="info")
    service = NL2SQLService(
        registry,
        AdmissionController(AdmissionPolicy(rate=1000.0, burst=1000)),
        observer=observer,
        live=make_live(observer, prune_lanes=True),
    )
    server = ReproServer(service, port=0).start()
    conn = HTTPConnection(*server.address, timeout=10)
    yield conn
    conn.close()
    server.shutdown()
    server.server_close()
    service.close()


class TestPercentEncodedIds:
    @pytest.mark.parametrize("request_id, path_id", [
        ("with space", "with%20space"),
        ("a/b", "a%2Fb"),
    ])
    def test_trace_id_is_decoded(self, live_client, dev_set, request_id,
                                 path_id):
        example = dev_set.examples[0]
        status, _ = post(live_client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "north pole", "request_id": request_id,
        })
        assert status == 200
        status, trace = get(live_client, f"/v1/trace/{path_id}")
        assert status == 200
        assert trace["request_id"] == request_id

    @pytest.mark.parametrize("tenant_id, path_id", [
        ("north pole", "north%20pole"),
        ("a/b", "a%2Fb"),
    ])
    def test_tenant_usage_id_is_decoded(self, live_client, dev_set,
                                        tenant_id, path_id):
        example = dev_set.examples[0]
        status, _ = post(live_client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": tenant_id,
        })
        assert status == 200
        status, data = get(live_client, f"/v1/tenants/{path_id}/usage")
        assert status == 200
        assert data["tenant"] == tenant_id
        assert data["usage"]["requests"] == 1
