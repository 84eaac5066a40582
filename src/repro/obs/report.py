"""Render a JSONL trace as a human-readable run profile.

This is the engine behind ``repro report <trace.jsonl>``: a per-stage
latency profile, a per-hardness breakdown (task root spans carry the
hardness annotation), a stage × hardness time matrix, the telemetry
roll-up, and a text *flame summary* — the span tree aggregated by call
path with proportional bars, the terminal version of a flame graph.

Pure functions over :class:`~repro.obs.export.TraceData`; nothing here
prints (the CLI routes the returned text through the render module).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.export import TraceData
from repro.obs.metrics import MetricsSnapshot, percentile
from repro.obs.telemetry import RunTelemetry

_BAR_WIDTH = 28
_FLAME_DEPTH = 6

#: Canonical stage names in pipeline order (others are allowed).
STAGE_ORDER = (
    "prune", "skeleton", "select", "llm", "adapt", "repair", "execute", "score"
)


def _duration(span: dict) -> float:
    end = span["end"] if span["end"] is not None else span["start"]
    return end - span["start"]


def _table(header: list, rows: list) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(c).ljust(w) for c, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _stage_durations(spans) -> dict:
    """``{stage: [seconds, ...]}`` over ``stage:<name>`` span dicts,
    canonical stages first, in span order within a stage."""
    by_stage: dict[str, list] = {}
    for span in spans:
        if span["name"].startswith("stage:"):
            by_stage.setdefault(span["name"][len("stage:"):], []).append(
                _duration(span)
            )
    ordered = {k: by_stage.pop(k) for k in STAGE_ORDER if k in by_stage}
    ordered.update(sorted(by_stage.items()))
    return ordered


def stage_totals(spans) -> dict:
    """Total seconds per stage over ``stage:<name>`` span dicts (the
    JSONL form, :meth:`~repro.obs.trace.Span.as_dict`), canonical stages
    first."""
    return {
        name: sum(durations)
        for name, durations in _stage_durations(spans).items()
    }


def stage_profile(trace: TraceData) -> list:
    """Per-stage rows: name, count, total s, mean/p50/p95 ms."""
    rows = []
    for name, durations in _stage_durations(trace.spans).items():
        rows.append(
            {
                "stage": name,
                "count": len(durations),
                "total_s": round(sum(durations), 4),
                "mean_ms": round(1000 * sum(durations) / len(durations), 3),
                "p50_ms": round(1000 * percentile(durations, 50), 3),
                "p95_ms": round(1000 * percentile(durations, 95), 3),
            }
        )
    return rows


def hardness_profile(trace: TraceData) -> list:
    """Per-hardness rows over task root spans: count and latency shape."""
    from repro.eval.harness import HARDNESS_ORDER

    by_hardness: dict[str, list] = {}
    for span in trace.task_spans():
        level = span["attrs"].get("hardness", "?")
        by_hardness.setdefault(level, []).append(_duration(span))
    ordered = [h for h in HARDNESS_ORDER if h in by_hardness]
    ordered += sorted(set(by_hardness) - set(ordered))
    rows = []
    for level in ordered:
        durations = by_hardness[level]
        rows.append(
            {
                "hardness": level,
                "tasks": len(durations),
                "total_s": round(sum(durations), 4),
                "mean_ms": round(1000 * sum(durations) / len(durations), 3),
                "p95_ms": round(1000 * percentile(durations, 95), 3),
            }
        )
    return rows


def stage_hardness_matrix(trace: TraceData) -> dict:
    """``{hardness: {stage: total seconds}}`` from the span tree."""
    hardness_of_lane = {
        span["lane"]: span["attrs"].get("hardness", "?")
        for span in trace.task_spans()
    }
    matrix: dict[str, dict] = {}
    for span in trace.named("stage:"):
        level = hardness_of_lane.get(span["lane"], "?")
        row = matrix.setdefault(level, {})
        name = span["name"][len("stage:"):]
        row[name] = row.get(name, 0.0) + _duration(span)
    return matrix


def flame_summary(trace: TraceData, depth: int = _FLAME_DEPTH) -> str:
    """The span tree aggregated by call path, with proportional bars."""
    by_id = {span["id"]: span for span in trace.spans}

    def path_of(span: dict) -> tuple:
        names = [span["name"]]
        parent = span["parent"]
        while parent is not None and parent in by_id:
            names.append(by_id[parent]["name"])
            parent = by_id[parent]["parent"]
        return tuple(reversed(names))

    totals: OrderedDict[tuple, list] = OrderedDict()
    for span in trace.spans:
        path = path_of(span)
        if len(path) > depth:
            continue
        bucket = totals.setdefault(path, [0, 0.0])
        bucket[0] += 1
        bucket[1] += _duration(span)

    if not totals:
        return "(no spans)"
    root_total = max(
        (seconds for path, (_, seconds) in totals.items() if len(path) == 1),
        default=0.0,
    )
    lines = []
    for path in sorted(totals):
        count, seconds = totals[path]
        bar = (
            "#" * max(round(_BAR_WIDTH * seconds / root_total), 1)
            if root_total > 0
            else ""
        )
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{label:<38} {count:>6}x {seconds:>9.3f}s  {bar}"
        )
    return "\n".join(lines)


def telemetry_from_trace(trace: TraceData) -> RunTelemetry:
    """Rebuild the typed telemetry roll-up from the trace's metrics line."""
    snapshot = MetricsSnapshot(
        counters=trace.metrics.get("counters", {}),
        gauges=trace.metrics.get("gauges", {}),
    )
    return RunTelemetry.from_metrics(snapshot, events=len(trace.events))


def render_report(trace: TraceData) -> str:
    """The full ``repro report`` text for one trace."""
    sections = []
    meta = {k: v for k, v in trace.meta.items() if k != "version"}
    if meta:
        sections.append(
            "== Run ==\n"
            + "\n".join(f"  {key}: {value}" for key, value in meta.items())
        )
    tasks = trace.task_spans()
    sections.append(
        f"== Tasks ==\n  spans cover {len(tasks)} tasks, "
        f"{len(trace.spans)} spans, {len(trace.events)} events"
    )

    stage_rows = stage_profile(trace)
    if stage_rows:
        sections.append(
            "== Stage profile ==\n"
            + _table(
                list(stage_rows[0]),
                [list(row.values()) for row in stage_rows],
            )
        )

    hardness_rows = hardness_profile(trace)
    if hardness_rows:
        sections.append(
            "== Hardness profile ==\n"
            + _table(
                list(hardness_rows[0]),
                [list(row.values()) for row in hardness_rows],
            )
        )

    matrix = stage_hardness_matrix(trace)
    if matrix:
        stages = sorted({stage for row in matrix.values() for stage in row})
        header = ["hardness \\ stage s", *stages]
        rows = [
            [level, *(round(matrix[level].get(stage, 0.0), 4) for stage in stages)]
            for level in sorted(matrix)
        ]
        sections.append("== Stage x hardness (s) ==\n" + _table(header, rows))

    if trace.metrics:
        telemetry = telemetry_from_trace(trace)
        sections.append(
            "== Telemetry ==\n"
            + "\n".join(
                f"  {key}: {value}"
                for key, value in telemetry.as_dict().items()
            )
        )

    sections.append("== Flame summary ==\n" + flame_summary(trace))
    return "\n\n".join(sections)
