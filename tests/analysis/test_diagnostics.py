"""Tests for the shared diagnostic model."""

import pytest

from repro.analysis import Diagnostic, Span, record_diagnostics
from repro.obs import Observer


class TestDiagnostic:
    def test_defaults(self):
        d = Diagnostic(rule="sql.unknown-column", message="no such column")
        assert d.severity == "error"
        assert d.span is None
        assert d.error_class is None

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(rule="r", message="m", severity="fatal")

    def test_error_class_reads_fix_hint(self):
        d = Diagnostic(
            rule="sql.unknown-column",
            message="m",
            fix_hint={"error_class": "schema_hallucination"},
        )
        assert d.error_class == "schema_hallucination"

    def test_as_dict_round_trips_fields(self):
        d = Diagnostic(
            rule="py.no-print",
            message="print() call",
            severity="warning",
            span=Span(line=3, col=4, length=5),
            file="repro/cli.py",
            fix_hint={"replace_with": "render.out"},
        )
        payload = d.as_dict()
        assert payload["rule"] == "py.no-print"
        assert payload["severity"] == "warning"
        assert payload["span"] == {"line": 3, "col": 4, "length": 5}
        assert payload["file"] == "repro/cli.py"
        assert payload["fix_hint"] == {"replace_with": "render.out"}

    def test_render_is_gcc_style(self):
        d = Diagnostic(
            rule="sql.unknown-table",
            message="no such table 'ghost'",
            span=Span(line=1, col=14),
            file="q.sql",
        )
        assert d.render() == (
            "q.sql:1:14: error [sql.unknown-table] no such table 'ghost'"
        )


class TestSummaries:
    def _diags(self):
        return [
            Diagnostic(rule="sql.unknown-column", message="a"),
            Diagnostic(rule="sql.unknown-column", message="b"),
            Diagnostic(rule="sql.unknown-table", message="c"),
        ]

    def test_record_diagnostics_feeds_metrics(self):
        observer = Observer()
        with observer.activate():
            record_diagnostics(self._diags())
        labelled = observer.metrics.snapshot().labelled("analysis.rule")
        assert labelled == {
            "sql.unknown-column": 2,
            "sql.unknown-table": 1,
        }

    def test_record_diagnostics_noop_when_unobserved(self):
        record_diagnostics(self._diags())  # must not raise
