"""Evaluation: exact-set match, execution match, test-suite accuracy,
token/cost accounting, and the experiment harness."""

from repro.eval.cost import TokenUsage
from repro.eval.exact_match import em_signature, exact_set_match
from repro.eval.execution import (
    GoldExecutionError,
    execution_match,
    gold_executes,
    results_equal,
)
from repro.eval.harness import (
    EvaluationReport,
    ExampleOutcome,
    NL2SQLApproach,
    TranslationResult,
    TranslationTask,
    build_suites_for_dataset,
    evaluate_approach,
)
from repro.eval.engine import map_ordered
from repro.eval.reporting import (
    diagnostics_summary,
    hardness_table,
    markdown_table,
    performance_summary,
    performance_table,
    save_csv,
    summary_rows,
    telemetry_summary,
    to_csv,
)
from repro.eval.timing import RunTiming
from repro.eval.test_suite import (
    TestSuite,
    build_test_suite,
    fuzz_database,
    generate_mutants,
)

__all__ = [
    "TokenUsage",
    "em_signature",
    "exact_set_match",
    "GoldExecutionError",
    "execution_match",
    "gold_executes",
    "results_equal",
    "EvaluationReport",
    "ExampleOutcome",
    "NL2SQLApproach",
    "TranslationResult",
    "TranslationTask",
    "build_suites_for_dataset",
    "evaluate_approach",
    "map_ordered",
    "RunTiming",
    "diagnostics_summary",
    "hardness_table",
    "markdown_table",
    "performance_summary",
    "performance_table",
    "save_csv",
    "summary_rows",
    "telemetry_summary",
    "to_csv",
    "TestSuite",
    "build_test_suite",
    "fuzz_database",
    "generate_mutants",
]
