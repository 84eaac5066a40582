"""Tracer, runtime helpers, logger, telemetry roll-up, and export."""

import json

import pytest

from repro.obs import (
    LOG_LEVELS,
    Observer,
    RunTelemetry,
    StructuredLogger,
    Tracer,
    annotate,
    chrome_trace,
    count,
    current_observer,
    event,
    gauge,
    observe,
    read_trace,
    render_report,
    span,
    write_trace,
)
from repro.obs.trace import GLOBAL_LANE
from repro.utils.context import task_lane


class TestTracer:
    def test_nesting_parent_links(self):
        tracer = Tracer(seed=1)
        outer = tracer.start_span("task", lane="t1")
        inner = tracer.start_span("stage:parse")
        assert inner.parent_id == outer.span_id
        assert inner.lane == "t1"  # inherited from parent
        tracer.end_span(inner)
        assert tracer.current_span() is outer
        tracer.end_span(outer)
        assert tracer.current_span() is None
        assert [s.name for s in tracer.spans()] == ["task", "stage:parse"]

    def test_lane_defaults_to_engine_lane(self):
        tracer = Tracer()
        with task_lane("ex-42"):
            span_ = tracer.start_span("task")
        assert span_.lane == "ex-42"
        tracer.end_span(span_)

    def test_lane_falls_back_to_global(self):
        tracer = Tracer()
        span_ = tracer.start_span("warmup")
        assert span_.lane == GLOBAL_LANE
        tracer.end_span(span_)

    def test_ids_deterministic_across_tracers(self):
        def ids():
            tracer = Tracer(seed=7)
            a = tracer.start_span("task", lane="t1")
            b = tracer.start_span("stage:parse")
            tracer.end_span(b)
            tracer.end_span(a)
            return [s.span_id for s in tracer.spans()]

        first, second = ids(), ids()
        assert first == second
        assert len(set(first)) == 2
        assert all(len(i) == 16 for i in first)

    def test_different_seed_different_ids(self):
        ids = []
        for seed in (1, 2):
            tracer = Tracer(seed=seed)
            ids.append(tracer.end_span(tracer.start_span("t", lane="x")).span_id)
        assert ids[0] != ids[1]

    def test_timestamps_are_epoch_offsets(self):
        tracer = Tracer()
        span_ = tracer.start_span("t", lane="x")
        tracer.end_span(span_)
        assert 0.0 <= span_.start <= span_.end
        assert span_.duration == span_.end - span_.start

    def test_spans_sorted_by_lane_then_seq(self):
        tracer = Tracer()
        b = tracer.start_span("t", lane="b")
        tracer.end_span(b)
        a = tracer.start_span("t", lane="a")
        tracer.end_span(a)
        assert [s.lane for s in tracer.spans()] == ["a", "b"]


class TestRuntimeHelpers:
    def test_noop_without_observer(self):
        assert current_observer() is None
        with span("anything") as s:
            assert s is None
        annotate(k=1)
        count("c")
        gauge("g", 1.0)
        observe("h", 0.5)
        event("e")

    def test_task_scopes_observer_and_root_span(self):
        obs = Observer()
        with obs.task("ex-1") as root:
            assert current_observer() is obs
            assert root.name == "task"
            assert root.lane == "ex-1"
            with span("stage:parse") as child:
                assert child.parent_id == root.span_id
            annotate(hardness="easy")
            count("tasks.evaluated")
        assert current_observer() is None
        assert root.attrs["hardness"] == "easy"
        assert len(obs.tracer) == 2
        assert obs.metrics.snapshot().counter("tasks.evaluated") == 1

    def test_activate_without_root_span(self):
        obs = Observer()
        with obs.activate():
            count("warmup")
            with span("train") as s:
                assert s.lane == GLOBAL_LANE
        assert obs.metrics.snapshot().counter("warmup") == 1

    def test_event_records_lane_from_span(self):
        obs = Observer()
        with obs.task("ex-9"):
            event("llm.retry", level="warning", attempt=2)
        [ev] = obs.logger.events()
        assert ev.lane == "ex-9"
        assert ev.fields == {"attempt": 2}
        assert ev.level == "warning"


class TestStructuredLogger:
    def test_level_threshold(self):
        logger = StructuredLogger(level="warning")
        assert not logger.enabled("info")
        assert logger.enabled("error")
        logger.log("a", level="debug", lane="x", t=0.0, fields={})
        logger.log("b", level="error", lane="x", t=0.0, fields={})
        assert [ev.name for ev in logger.events()] == ["b"]

    def test_off_collects_nothing(self):
        logger = StructuredLogger(level="off")
        logger.log("a", level="error", lane="x", t=0.0, fields={})
        assert len(logger) == 0

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            StructuredLogger(level="verbose")

    def test_sink_receives_live_events(self):
        seen = []
        logger = StructuredLogger(level="info", sink=seen.append)
        logger.log("x", level="info", lane="l", t=0.1, fields={"a": 1})
        assert [ev.name for ev in seen] == ["x"]
        assert "a=1" in seen[0].format()

    def test_levels_ladder(self):
        assert (
            LOG_LEVELS["debug"]
            < LOG_LEVELS["info"]
            < LOG_LEVELS["warning"]
            < LOG_LEVELS["error"]
            < LOG_LEVELS["off"]
        )


class TestRunTelemetry:
    def test_from_observer_metrics(self):
        obs = Observer()
        with obs.activate():
            count("tasks.evaluated", 3)
            count("llm.retries", 2)
            count("cache.hits", 4)
            count("cache.misses")
            count("degrade.level", 2, level=0)
            count("degrade.level", level=1)
            event("something")
        telemetry = obs.telemetry()
        assert telemetry.tasks == 3
        assert telemetry.llm_retries == 2
        assert telemetry.cache_hit_rate == pytest.approx(0.8)
        assert telemetry.degradation_levels == {"0": 2, "1": 1}
        assert telemetry.degraded == 1
        assert telemetry.events == 1

    def test_empty_roll_up(self):
        telemetry = Observer().telemetry()
        assert telemetry == RunTelemetry()
        assert telemetry.cache_hit_rate == 0.0
        assert telemetry.degraded == 0

    def test_as_dict_round_numbers(self):
        d = RunTelemetry(cache_hits=1, cache_misses=2).as_dict()
        assert d["cache_hit_rate"] == 0.3333

    def test_as_dict_key_order(self):
        # `repro report` renders the roll-up in this order; each derived
        # value sits right after the field it is computed from.
        assert list(RunTelemetry().as_dict()) == [
            "tasks", "llm_attempts", "llm_retries", "breaker_opens",
            "fallbacks", "cache_hits", "cache_misses", "cache_hit_rate",
            "degradation_levels", "degraded", "degrade_exhausted",
            "executor_statements", "executor_timeouts",
            "executor_cache_hits", "executor_cache_misses", "index_builds",
            "repair_triggered", "repair_rounds", "repair_recovered",
            "repair_success_depth", "repair_abandoned", "diagnostics",
            "dialect_checked", "dialect_findings", "dialect_rejections",
            "events",
        ]


def _observed_run() -> Observer:
    obs = Observer(seed=3)
    with obs.task("ex-0"):
        annotate(hardness="easy")
        with span("stage:schema_linking"):
            pass
        with span("stage:generation"):
            with span("llm.attempt", attempt=0):
                pass
        count("tasks.evaluated")
        event("task.done", em=1)
    with obs.task("ex-1"):
        annotate(hardness="hard")
        with span("stage:generation"):
            pass
        count("tasks.evaluated")
    return obs


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        obs = _observed_run()
        path = tmp_path / "trace.jsonl"
        lines = write_trace(obs, path, meta={"approach": "purple"})
        raw = path.read_text().splitlines()
        assert lines == len(raw)
        # meta first, metrics last, everything valid JSON
        assert json.loads(raw[0])["type"] == "meta"
        assert json.loads(raw[0])["version"] == 1
        assert json.loads(raw[-1])["type"] == "metrics"

        trace = read_trace(path)
        assert trace.meta["approach"] == "purple"
        assert len(trace.task_spans()) == 2
        assert len(trace.named("stage:")) == 3
        assert trace.metrics["counters"]["tasks.evaluated"] == 2
        assert [ev["name"] for ev in trace.events] == ["task.done"]

    def test_write_is_deterministic_modulo_time(self, tmp_path):
        """Same workload → same ids and structure on both runs."""
        first = write_and_read(tmp_path / "a.jsonl")
        second = write_and_read(tmp_path / "b.jsonl")
        strip = lambda s: {
            k: v for k, v in s.items() if k not in ("start", "end")
        }
        assert [strip(s) for s in first.spans] == [
            strip(s) for s in second.spans
        ]

    def test_chrome_trace_shape(self, tmp_path):
        obs = _observed_run()
        path = tmp_path / "trace.jsonl"
        write_trace(obs, path)
        trace = read_trace(path)
        chrome = chrome_trace(trace)
        events = chrome["traceEvents"]
        names = [e["ph"] for e in events]
        assert names.count("M") == 2  # one thread_name per lane
        assert names.count("X") == len(trace.spans)
        assert names.count("i") == len(trace.events)
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert lanes == {"ex-0", "ex-1"}
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0
                json.dumps(e)  # serializable


def write_and_read(path):
    write_trace(_observed_run(), path)
    return read_trace(path)


class TestReport:
    def test_render_report_sections(self, tmp_path):
        obs = _observed_run()
        path = tmp_path / "trace.jsonl"
        write_trace(obs, path, meta={"approach": "purple", "workers": 4})
        text = render_report(read_trace(path))
        for section in (
            "== Run ==",
            "== Tasks ==",
            "== Stage profile ==",
            "== Hardness profile ==",
            "== Telemetry ==",
            "== Flame summary ==",
        ):
            assert section in text
        assert "approach: purple" in text
        assert "generation" in text
        assert "easy" in text and "hard" in text
        assert "tasks: 2" in text

    def test_report_on_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_trace(Observer(), path)
        text = render_report(read_trace(path))
        assert "spans cover 0 tasks" in text
        assert "(no spans)" in text
