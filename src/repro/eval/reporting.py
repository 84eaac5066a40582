"""Render evaluation results as markdown / CSV / plain tables.

The benchmark suite prints paper-style tables; this module gives library
users the same rendering for their own experiment matrices:

    reports = {"purple": report_a, "dail": report_b}
    table = markdown_table(reports)
    save_csv(reports, "results.csv")

Nothing here writes to the console: functions return strings/dicts, and
the CLI routes them through :mod:`repro.obs.render` (the one module
allowed to ``print``).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Optional

from repro.eval.harness import HARDNESS_ORDER, EvaluationReport

_METRICS = ("em", "ex", "ts", "availability")


def performance_summary(report: EvaluationReport) -> dict:
    """Wall-clock profile of a run: throughput, latency, stage totals.

    Returns an empty dict for reports without timing (e.g. hand-built
    ones).  Stage totals come from the run's ``stage:<name>`` spans, so
    they are empty unless the run was observed; stage keys appear in
    canonical pipeline order.
    """
    timing = report.timing
    if timing is None or not timing.latencies:
        return {}
    return {
        "workers": timing.workers,
        "tasks": len(timing.latencies),
        "wall_time_s": round(timing.wall_time, 4),
        "throughput_qps": round(timing.throughput(), 3),
        "latency_p50_s": round(timing.latency_percentile(50), 4),
        "latency_p95_s": round(timing.latency_percentile(95), 4),
        "stage_totals_s": {
            name: round(seconds, 4)
            for name, seconds in timing.stages.items()
        },
    }


def telemetry_summary(report: EvaluationReport) -> dict:
    """The report's telemetry roll-up as a JSON-ready dict.

    Empty for unobserved runs — pass an ``observer`` to
    :func:`~repro.eval.harness.evaluate_approach` to populate it.
    """
    if report.telemetry is None:
        return {}
    return report.telemetry.as_dict()


def diagnostics_summary(report: EvaluationReport) -> dict:
    """Static-analysis roll-up: guard activity plus per-rule counts.

    Empty for unobserved runs, or observed runs where the analyzer never
    fired (guard off and no diagnosis-directed repairs).
    """
    telemetry = report.telemetry
    if telemetry is None:
        return {}
    if not (
        telemetry.guard_checked
        or telemetry.guard_skipped
        or telemetry.diagnostics
    ):
        return {}
    checked = telemetry.guard_checked
    summary = {
        "guard_checked": checked,
        "guard_skipped": telemetry.guard_skipped,
        "executions_avoided_rate": (
            round(telemetry.guard_skipped / checked, 4) if checked else 0.0
        ),
        "rules": dict(telemetry.diagnostics),
    }
    if telemetry.dialect_checked or telemetry.dialect_rejections:
        summary["dialect"] = {
            "name": report.dialect,
            "checked": telemetry.dialect_checked,
            "findings": telemetry.dialect_findings,
            "rejections": telemetry.dialect_rejections,
            "rules": {
                rule: count
                for rule, count in telemetry.diagnostics.items()
                if rule.startswith("dlct.")
            },
        }
    return summary


def performance_table(report: EvaluationReport) -> str:
    """Markdown rendering of :func:`performance_summary` (one run)."""
    summary = performance_summary(report)
    if not summary:
        return ""
    stages = summary.pop("stage_totals_s")
    headers = list(summary) + [f"stage:{name}" for name in stages]
    values = [str(v) for v in summary.values()] + [
        str(seconds) for seconds in stages.values()
    ]
    return "\n".join(
        [
            "| " + " | ".join(headers) + " |",
            "| " + " | ".join("---" for _ in headers) + " |",
            "| " + " | ".join(values) + " |",
        ]
    )


def summary_rows(
    reports: dict, include_ts: bool = False, include_resilience: bool = False
) -> list:
    """One row per report: name, EM, EX, (TS), tokens/query, n.

    With ``include_resilience`` the row also carries availability (share
    of tasks answered with LLM-derived SQL) and retries per query, so
    fault-injection benches report accuracy *and* availability.
    """
    rows = []
    for name, report in reports.items():
        row = {
            "approach": name,
            "em": round(report.em, 4),
            "ex": round(report.ex, 4),
        }
        if include_ts:
            row["ts"] = round(report.ts, 4)
        if include_resilience:
            row["availability"] = round(report.availability, 4)
            row["retries_per_query"] = round(report.retries_per_query(), 3)
            row["eval_errors"] = report.eval_errors
        row["tokens_per_query"] = report.tokens_per_query()
        row["queries"] = len(report)
        rows.append(row)
    return rows


def markdown_table(
    reports: dict, include_ts: bool = False, include_resilience: bool = False
) -> str:
    """A GitHub-flavoured markdown summary table."""
    rows = summary_rows(
        reports, include_ts=include_ts, include_resilience=include_resilience
    )
    if not rows:
        return ""
    headers = list(rows[0])
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        cells = []
        for header in headers:
            value = row[header]
            if header in _METRICS:
                cells.append(f"{100 * value:.1f}%")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def hardness_table(report: EvaluationReport, metric: str = "em") -> str:
    """Markdown breakdown of one report by hardness level."""
    buckets = report.by_hardness(metric)
    headers = [level for level in HARDNESS_ORDER if level in buckets]
    lines = [
        "| " + " | ".join([metric.upper(), *headers]) + " |",
        "| " + " | ".join("---" for _ in range(len(headers) + 1)) + " |",
        "| "
        + " | ".join(
            [report.approach, *(f"{100 * buckets[h]:.1f}%" for h in headers)]
        )
        + " |",
    ]
    return "\n".join(lines)


def to_csv(
    reports: dict, include_ts: bool = False, include_resilience: bool = False
) -> str:
    """CSV text with one row per report."""
    rows = summary_rows(
        reports, include_ts=include_ts, include_resilience=include_resilience
    )
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def save_csv(
    reports: dict,
    path,
    include_ts: bool = False,
    include_resilience: bool = False,
) -> None:
    """Write :func:`to_csv` output to a file."""
    Path(path).write_text(
        to_csv(
            reports,
            include_ts=include_ts,
            include_resilience=include_resilience,
        )
    )
