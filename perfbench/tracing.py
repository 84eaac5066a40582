"""Span recording for the traced runs, from outside the program.

:class:`Recorder` wraps public functions and methods of the program and
records one span per call: name, start, end, parent span name, request
id, wall and thread-CPU duration, and the self time left after
subtracting the children that ran inside it.  Spans stay in memory and
are written out when the run ends; nothing here touches the program's
own observability (``repro.obs`` / ``repro.eval.timing``), whose
definitions later changes may rewrite.

Functions that ``repro.core.pipeline`` and ``repro.eval.harness`` import
by name are patched in those modules, where the call sites look them
up; patching their home modules would time nothing.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: The per-task layers whose self times are summed; anything else inside
#: a task (pipeline glue, harness bookkeeping) is ``other``.
TASK_LAYERS = (
    "prune", "skeleton", "select", "prompt", "llm", "adapt", "vote",
    "executor", "score", "serve.http", "serve.service", "admission", "live",
)
SETUP_LAYERS = (
    "setup.corpus", "setup.classifier", "setup.skeleton_train",
    "setup.index", "setup.prompt_index",
)


class _Frame:
    __slots__ = ("child_wall", "child_cpu")

    def __init__(self):
        self.child_wall = 0.0
        self.child_cpu = 0.0


class Recorder:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Tag spans this thread opens from now on with ``rid``."""
        self._local.rid = rid

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(result, args)`` adds
        attributes (counts measured where the work happens)."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1][0] if stack else ""
            frame = _Frame()
            stack.append((name, frame))
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                wall, cpu = t1 - t0, c1 - c0
                if stack:
                    outer = stack[-1][1]
                    outer.child_wall += wall
                    outer.child_cpu += cpu
            attrs = observe(result, args) if observe is not None else None
            span = {
                "name": name, "parent": parent,
                "rid": getattr(recorder._local, "rid", None),
                "start": t0, "end": t1, "wall": wall, "cpu": cpu,
                "self_wall": wall - frame.child_wall,
                "self_cpu": cpu - frame.child_cpu,
            }
            if attrs:
                span.update(attrs)
            with recorder._lock:
                recorder.spans.append(span)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None,
              static: bool = False) -> None:
        """Replace ``owner.attr`` with its traced version."""
        original = owner.__dict__[attr] if static else getattr(owner, attr)
        fn = original.__func__ if static else original
        traced = self.wrap(name, fn, observe)
        setattr(owner, attr, staticmethod(traced) if static else traced)

    def dump(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as handle:
            json.dump({"spans": spans, "span_cost_s": span_cost_s()}, handle)


def span_cost_s(calls: int = 20000) -> float:
    """Wall cost of one recorded span, from timing a wrapped no-op."""
    recorder = Recorder()

    def noop():
        return None

    traced = recorder.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)


def instrument(recorder: Recorder, serve: bool = False) -> None:
    """Install spans at every layer boundary the benchmark measures."""
    from repro.core import pipeline
    from repro.core.adaption import DatabaseAdapter
    from repro.core.automaton import AutomatonIndex
    from repro.core.prompt import PromptBuilder
    from repro.core.pruning import SchemaPruner
    from repro.core.skeleton_prediction import SkeletonPredictionModule
    from repro.eval import harness
    from repro.llm.mock_llm import MockLLM
    from repro.schema.sqlite_backend import SQLiteExecutor
    from repro.spider.dataset import Dataset

    # Set-up: corpus load, the two PLM substrates, the two indexes.
    recorder.patch(Dataset, "load", "setup.corpus", static=True)
    recorder.patch(pipeline, "train_schema_classifier", "setup.classifier")
    recorder.patch(pipeline, "train_skeleton_predictor",
                   "setup.skeleton_train")
    recorder.patch(AutomatonIndex, "build", "setup.index", static=True)
    recorder.patch(PromptBuilder, "__init__", "setup.prompt_index")

    # The per-task hot path.
    recorder.patch(SchemaPruner, "prune", "prune")
    recorder.patch(SkeletonPredictionModule, "predict", "skeleton")
    recorder.patch(
        pipeline, "select_demonstrations", "select",
        lambda result, args: {"demos": len(result)},
    )
    recorder.patch(pipeline, "render_schema", "prompt")
    recorder.patch(
        PromptBuilder, "build", "prompt",
        lambda result, args: {"demos": result.count("### Example\n")},
    )
    recorder.patch(
        MockLLM, "complete", "llm",
        lambda result, args: {
            "samples": args[1].n,
            "tokens": result.prompt_tokens,
        },
    )
    recorder.patch(
        DatabaseAdapter, "adapt", "adapt",
        lambda result, args: {"changed": result.sql != args[1]},
    )
    recorder.patch(
        pipeline, "consistency_vote", "vote",
        lambda result, args: {"distinct": len(set(args[0]))},
    )
    _patch_executor(recorder, SQLiteExecutor)
    recorder.patch(pipeline.Purple, "translate", "pipeline")
    recorder.patch(harness, "exact_set_match", "score")
    recorder.patch(harness, "execution_match", "score")

    if serve:
        from repro.obs.live import LiveTelemetry
        from repro.serve import http
        from repro.serve.admission import AdmissionController
        from repro.serve.service import NL2SQLService

        handler = http._Handler
        post = recorder.wrap(
            "serve.http", handler.do_POST,
            lambda result, args: {"path": args[0].path},
        )

        def do_post(self):
            recorder.set_request(self.headers.get("X-Bench-Id"))
            try:
                return post(self)
            finally:
                recorder.set_request(None)

        handler.do_POST = do_post
        recorder.patch(NL2SQLService, "translate", "serve.service")
        recorder.patch(
            AdmissionController, "acquire", "admission",
            lambda result, args: {"verdict": result},
        )
        recorder.patch(LiveTelemetry, "record_request", "live")
        recorder.patch(LiveTelemetry, "capture", "live")


def _patch_executor(recorder: Recorder, cls) -> None:
    """``SQLiteExecutor.execute`` with a cache-hit flag per statement."""
    execute = cls.execute

    def counted(self, key, sql):
        hits = self.cache_hits
        result = execute(self, key, sql)
        return result, self.cache_hits > hits

    traced = recorder.wrap(
        "executor", counted, lambda result, args: {"hit": result[1]}
    )

    def patched(self, key, sql):
        return traced(self, key, sql)[0]

    cls.execute = functools.wraps(execute)(patched)


def fold(spans: list, tasks: int, e2e_total_s: float, e2e_cpu_s: float,
         transport_total_s: float = 0.0, requests: int = 0,
         span_cost: float = 0.0) -> dict:
    """Per-layer metrics from a run's spans (``tasks`` measured tasks).

    ``e2e_total_s`` is the end-to-end wall time the spans sit inside
    (batch: the evaluation call; serve: client latency from send) and
    ``e2e_cpu_s`` the CPU time of the threads that ran them; ``other``
    is what no layer's self time accounts for.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name, key):
        return sum(s[key] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def share(name, flag):
        items = by_name.get(name, ())
        return sum(1 for s in items if s.get(flag)) / len(items) if items else 0.0

    per = max(tasks, 1)
    out: dict = {}
    for layer in SETUP_LAYERS:
        out[f"{layer}_s"] = (total(layer, "self_wall"), "s")
    for layer in ("prune", "skeleton", "select", "prompt", "llm", "adapt",
                  "vote", "executor", "score"):
        out[f"{layer}.ms_per_task"] = (
            total(layer, "self_wall") * 1000.0 / per, "ms")
        out[f"{layer}.cpu_ms_per_task"] = (
            total(layer, "self_cpu") * 1000.0 / per, "ms")
    llm_calls = calls("llm")
    out["llm.samples_per_call"] = (
        total("llm", "samples") / llm_calls if llm_calls else 0.0, "count")
    out["select.demos_per_task"] = (total("select", "demos") / per, "count")
    out["prompt.tokens_per_task"] = (total("llm", "tokens") / per, "tokens")
    builds = [s for s in by_name.get("prompt", ()) if "demos" in s]
    out["prompt.demos_per_prompt"] = (
        sum(s["demos"] for s in builds) / len(builds) if builds else 0.0,
        "count")
    out["adapt.changed_share"] = (share("adapt", "changed"), "ratio")
    votes = calls("vote")
    out["vote.distinct_candidates"] = (
        total("vote", "distinct") / votes if votes else 0.0, "count")
    out["executor.statements_per_task"] = (calls("executor") / per, "count")
    out["executor.cache_hit_share"] = (share("executor", "hit"), "ratio")

    per_req = max(requests, 1)
    for layer in ("serve.http", "serve.service", "admission", "live"):
        out[f"{layer}.ms_per_request"] = (
            total(layer, "self_wall") * 1000.0 / per_req, "ms")
        out[f"{layer}.cpu_ms_per_request"] = (
            total(layer, "self_cpu") * 1000.0 / per_req, "ms")
    out["serve.handler_ms"] = (
        total("serve.http", "wall") * 1000.0 / per_req if requests else 0.0,
        "ms")
    out["transport.ms_per_request"] = (
        transport_total_s * 1000.0 / per_req if requests else 0.0, "ms")

    layer_self = sum(total(layer, "self_wall") for layer in TASK_LAYERS)
    layer_cpu = sum(total(layer, "self_cpu") for layer in TASK_LAYERS)
    out["other.ms_per_task"] = (
        (e2e_total_s - transport_total_s - layer_self) * 1000.0 / per, "ms")
    out["other.cpu_ms_per_task"] = (
        (e2e_cpu_s - layer_cpu) * 1000.0 / per, "ms")
    task_spans = sum(
        len(by_name.get(layer, ())) for layer in TASK_LAYERS + ("pipeline",))
    out["trace.overhead_share"] = (
        task_spans * span_cost / e2e_total_s if e2e_total_s else 0.0, "ratio")
    return out
