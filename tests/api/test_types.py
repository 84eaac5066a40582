"""The versioned wire contract (repro.api.types) and its entry point."""

import pytest

from repro.api.types import (
    SCHEMA_VERSION,
    ErrorEnvelope,
    ExecuteRequest,
    ExecuteResponse,
    ExplainResponse,
    TranslateRequest,
    TranslateResponse,
    WireFormatError,
)


class TestRoundTrips:
    def test_translate_request_round_trips(self):
        request = TranslateRequest(
            question="how many heads", db_id="hospital_1",
            tenant="acme", request_id="r-1",
        )
        assert TranslateRequest.from_json(request.to_json()) == request

    def test_translate_response_round_trips(self):
        response = TranslateResponse(
            sql="SELECT 1", request_id="r-1", tenant="acme",
            db_id="hospital_1", prompt_tokens=100, output_tokens=5,
            degradation_level=1, retries=2, shed=True, latency_ms=12.5,
        )
        assert TranslateResponse.from_json(response.to_json()) == response

    def test_explain_response_round_trips_nested_tuples(self):
        response = ExplainResponse(
            request_id="r-2", tenant="acme", db_id="hospital_1",
            sql="SELECT 1",
            diagnostics=({"rule": "sql.unknown-column", "severity": "error"},),
            skeletons=({"tokens": "select _ from _", "probability": 0.5},),
            demonstrations=({"index": 3, "db_id": "d", "sql": "SELECT 2"},),
            pruned_tables=("hospital",),
        )
        hop = ExplainResponse.from_json(response.to_json())
        assert hop == response
        assert isinstance(hop.diagnostics, tuple)
        assert isinstance(hop.pruned_tables, tuple)

    def test_execute_round_trips(self):
        request = ExecuteRequest(sql="SELECT 1", db_id="hospital_1")
        assert ExecuteRequest.from_json(request.to_json()) == request
        response = ExecuteResponse(
            request_id="r-3", columns=("a", "b"), rows=((1, 2), (3, 4)),
            row_count=2,
        )
        hop = ExecuteResponse.from_json(response.to_json())
        assert hop == response
        assert hop.rows == ((1, 2), (3, 4))

    def test_error_envelope_round_trips(self):
        envelope = ErrorEnvelope(
            code="overloaded", message="busy", request_id="r-4", status=429
        )
        assert ErrorEnvelope.from_json(envelope.to_json()) == envelope

    def test_canonical_json_is_sorted_and_compact(self):
        text = TranslateRequest(question="q", db_id="d").to_json()
        keys = list(TranslateRequest.from_json(text).to_dict())
        import json

        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert "question" in keys and "schema_version" in keys


class TestStrictness:
    def test_unknown_field_rejected(self):
        with pytest.raises(WireFormatError, match="unknown field"):
            TranslateRequest.from_dict(
                {"question": "q", "db_id": "d", "bogus": 1}
            )

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(WireFormatError, match="schema_version"):
            TranslateRequest.from_dict(
                {"question": "q", "db_id": "d",
                 "schema_version": SCHEMA_VERSION + 1}
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(WireFormatError):
            TranslateRequest.from_dict({"question": "q"})

    def test_invalid_json_rejected(self):
        with pytest.raises(WireFormatError, match="invalid JSON"):
            TranslateRequest.from_json("{not json")

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 50_000])
    @pytest.mark.parametrize("cls", [TranslateRequest, ExecuteRequest])
    def test_deeply_nested_json_rejected(self, cls, text):
        # Past the decoder's recursion limit json.loads raises
        # RecursionError, which must not escape the wire boundary.
        with pytest.raises(WireFormatError, match="nested too deeply"):
            cls.from_json(text)

    def test_non_object_rejected(self):
        with pytest.raises(WireFormatError, match="expected an object"):
            TranslateRequest.from_dict([1, 2])

    def test_empty_question_rejected(self):
        with pytest.raises(WireFormatError, match="question"):
            TranslateRequest(question="   ", db_id="d")

    def test_empty_sql_rejected(self):
        with pytest.raises(WireFormatError, match="sql"):
            ExecuteRequest(sql="", db_id="d")

    @pytest.mark.parametrize("cls, text", [
        (TranslateRequest, "question"), (ExecuteRequest, "sql"),
    ])
    @pytest.mark.parametrize("field, value", [
        ("tenant", ["acme"]),
        ("tenant", {"a": 1}),
        ("tenant", ""),
        ("tenant", None),
        ("request_id", ["x"]),
        ("request_id", 7),
        ("request_id", None),
    ])
    def test_routing_fields_must_be_strings(self, cls, text, field, value):
        with pytest.raises(WireFormatError, match=field):
            cls.from_dict({text: "q", "db_id": "d", field: value})


class TestTranslateEntryPoint:
    """``repro.api.translate`` takes the wire request and nothing else."""

    @pytest.mark.parametrize("kind", ["engine-task", "dict", "string"])
    def test_non_request_rejected_with_type_error(self, kind):
        from repro import api
        from repro.eval.harness import TranslationTask
        from repro.schema import Database, Schema

        database = Database(schema=Schema(db_id="d"))
        request = {
            "engine-task": TranslationTask(question="q", database=database),
            "dict": {"question": "q", "db_id": "d"},
            "string": "q",
        }[kind]
        with pytest.raises(TypeError, match="TranslateRequest"):
            api.translate(object(), request, database=database)
