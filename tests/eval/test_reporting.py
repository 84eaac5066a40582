"""Tests for result rendering."""

import pytest

from repro import api
from repro.baselines.zero_few import ZeroShotSQL
from repro.eval import (
    EvaluationReport,
    ExampleOutcome,
    TokenUsage,
    evaluate_approach,
)
from repro.eval.reporting import (
    hardness_table,
    markdown_table,
    performance_summary,
    performance_table,
    save_csv,
    summary_rows,
    to_csv,
)
from repro.llm import CHATGPT, MockLLM
from repro.obs import Observer, read_trace, write_trace
from repro.obs.report import stage_profile


@pytest.fixture
def reports():
    def outcome(em, ex, hardness="easy"):
        return ExampleOutcome(
            ex_id="x", hardness=hardness, predicted_sql="SELECT 1",
            em=em, ex=ex, usage=TokenUsage(100, 10, 1),
        )

    a = EvaluationReport(
        approach="purple", dataset="dev",
        outcomes=[outcome(True, True), outcome(False, True, "extra")],
    )
    b = EvaluationReport(
        approach="zero", dataset="dev",
        outcomes=[outcome(False, True), outcome(False, False, "extra")],
    )
    return {"purple": a, "zero": b}


class TestSummary:
    def test_rows(self, reports):
        rows = summary_rows(reports)
        assert rows[0]["approach"] == "purple"
        assert rows[0]["em"] == 0.5
        assert rows[0]["queries"] == 2
        assert rows[0]["tokens_per_query"] == 110

    def test_empty(self):
        assert summary_rows({}) == []
        assert markdown_table({}) == ""
        assert to_csv({}) == ""


class TestMarkdown:
    def test_table_structure(self, reports):
        table = markdown_table(reports)
        lines = table.splitlines()
        assert lines[0].startswith("| approach |")
        assert lines[1].startswith("| --- |")
        assert len(lines) == 4
        assert "50.0%" in table

    def test_ts_column_optional(self, reports):
        assert "ts" not in markdown_table(reports).splitlines()[0]
        assert " ts " in markdown_table(reports, include_ts=True).splitlines()[0]

    def test_hardness_table(self, reports):
        table = hardness_table(reports["purple"], "em")
        assert "easy" in table and "extra" in table
        assert "100.0%" in table and "0.0%" in table


class TestCSV:
    def test_round_trip(self, reports, tmp_path):
        path = tmp_path / "out.csv"
        save_csv(reports, path)
        import csv as csvmod

        with open(path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["approach"] == "purple"
        assert float(rows[0]["em"]) == 0.5


class TestResilienceColumns:
    def test_off_by_default(self, reports):
        assert "availability" not in summary_rows(reports)[0]

    def test_columns_present_when_enabled(self, reports):
        rows = summary_rows(reports, include_resilience=True)
        assert rows[0]["availability"] == 1.0
        assert rows[0]["retries_per_query"] == 0.0
        assert rows[0]["eval_errors"] == 0

    def test_degraded_run_surfaces_in_table(self):
        outcomes = [
            ExampleOutcome(
                ex_id="x", hardness="easy", predicted_sql="SELECT 1",
                em=False, ex=False, answered=False, retries=3,
            ),
            ExampleOutcome(
                ex_id="y", hardness="easy", predicted_sql="SELECT 1",
                em=True, ex=True, retries=1,
            ),
        ]
        report = EvaluationReport(
            approach="faulty", dataset="dev", outcomes=outcomes
        )
        table = markdown_table({"faulty": report}, include_resilience=True)
        assert " availability " in table.splitlines()[0]
        assert "50.0%" in table  # availability rendered as a percentage


class TestStageTotals:
    def test_report_and_trace_fold_the_same_spans(
        self, train_set, dev_set, tmp_path
    ):
        """An observed run's stage totals equal `repro report`'s stage
        profile over the same observer's exported trace."""
        approach = api.create(
            "purple", llm=MockLLM(CHATGPT, seed=2), train=train_set,
            consistency_n=3,
        )
        observer = Observer()
        report = evaluate_approach(
            approach, dev_set, limit=6, workers=2, observer=observer
        )
        approach.close()
        path = tmp_path / "run.jsonl"
        write_trace(observer, path)
        profile = {
            row["stage"]: row["total_s"]
            for row in stage_profile(read_trace(path))
        }
        totals = performance_summary(report)["stage_totals_s"]
        assert {"prune", "llm", "execute", "score"} <= set(totals)
        assert totals == profile

    def test_shared_observer_counts_each_run_once(self, dev_set):
        observer = Observer()
        approach = ZeroShotSQL(MockLLM(CHATGPT, seed=2))
        first, second = (
            evaluate_approach(approach, dev_set, limit=3, observer=observer)
            for _ in range(2)
        )
        score_spans = [
            s for s in observer.tracer.spans() if s.name == "stage:score"
        ]
        assert len(score_spans) == 6
        assert first.timing.stages["score"] + second.timing.stages[
            "score"
        ] == pytest.approx(sum(s.duration for s in score_spans), abs=1e-5)

    def test_unobserved_report_has_no_stages(self, dev_set):
        report = evaluate_approach(
            ZeroShotSQL(MockLLM(CHATGPT, seed=2)), dev_set, limit=3
        )
        assert report.timing.stages == {}
        assert performance_summary(report)["stage_totals_s"] == {}
        table = performance_table(report).splitlines()
        assert len(table) == 3
        assert "stage:" not in table[0]
        assert "throughput_qps" in table[0]
