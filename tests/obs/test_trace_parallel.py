"""Trace correctness under parallelism, and the full-stack acceptance run.

The observability layer must not disturb the engine's core contract
(parallel outcomes byte-identical to serial, tracing on or off) while
still producing one correctly-nested span tree per task lane — and its
metrics must actually see every wrapper in the production stack when
faults are injected.
"""

import dataclasses

import pytest

from repro import api
from repro.eval import evaluate_approach
from repro.llm import (
    CHATGPT,
    CachingLLM,
    FakeClock,
    FaultPolicy,
    FaultyLLM,
    MockLLM,
    PromptCache,
    ResilientLLM,
)
from repro.obs import Observer

LIMIT = 16
WORKERS = 4


def purple(train, llm):
    return api.create("purple", llm=llm, train=train, consistency_n=5)


def observed_run(train_set, dev_set, workers, observer=None, seed=2):
    report = evaluate_approach(
        purple(train_set, MockLLM(CHATGPT, seed=seed)),
        dev_set,
        limit=LIMIT,
        workers=workers,
        observer=observer,
    )
    return report


class TestParallelTraces:
    def test_spans_nest_per_task_lane(self, train_set, dev_set):
        observer = Observer()
        report = observed_run(train_set, dev_set, WORKERS, observer)
        spans = observer.tracer.spans()
        roots = [s for s in spans if s.name == "task"]

        # 100% task coverage: one root span per scored task, on its lane.
        assert len(roots) == len(report.outcomes) == LIMIT
        assert {s.lane for s in roots} == {
            o.ex_id for o in report.outcomes
        }

        by_id = {s.span_id: s for s in spans}
        root_of_lane = {s.lane: s.span_id for s in roots}
        for span in spans:
            if span.name == "task":
                assert span.parent_id is None
                continue
            # Every child resolves to an ancestor chain ending at its
            # lane's own root — never another task's tree.
            assert span.parent_id in by_id
            assert by_id[span.parent_id].lane == span.lane
            top = span
            while top.parent_id is not None:
                top = by_id[top.parent_id]
            assert top.span_id == root_of_lane[span.lane]

        # Each task tree carries per-stage children.
        stage_lanes = {s.lane for s in spans if s.name.startswith("stage:")}
        assert stage_lanes == set(root_of_lane)
        stage_names = {s.name for s in spans if s.name.startswith("stage:")}
        assert {"stage:llm", "stage:execute"} <= stage_names

    def test_root_spans_carry_outcome_annotations(self, train_set, dev_set):
        observer = Observer()
        report = observed_run(train_set, dev_set, WORKERS, observer)
        roots = {
            s.lane: s for s in observer.tracer.spans() if s.name == "task"
        }
        for outcome in report.outcomes:
            attrs = roots[outcome.ex_id].attrs
            assert attrs["hardness"] == outcome.hardness
            assert attrs["em"] == outcome.em
            assert attrs["ex"] == outcome.ex

    def test_span_ids_deterministic_across_runs(self, train_set, dev_set):
        def run():
            observer = Observer(seed=5)
            observed_run(train_set, dev_set, WORKERS, observer)
            return [
                (s.span_id, s.parent_id, s.name, s.lane, s.seq)
                for s in observer.tracer.spans()
            ]

        assert run() == run()

    def test_parallel_trace_matches_serial_trace(self, train_set, dev_set):
        """Same tree under workers=1 and workers=4 — ids, nesting, order."""
        shapes = []
        for workers in (1, WORKERS):
            observer = Observer(seed=5)
            observed_run(train_set, dev_set, workers, observer)
            shapes.append(
                [
                    (s.span_id, s.parent_id, s.name, s.lane, s.seq)
                    for s in observer.tracer.spans()
                ]
            )
        assert shapes[0] == shapes[1]

    def test_outcomes_identical_tracing_on_or_off(self, train_set, dev_set):
        plain = observed_run(train_set, dev_set, WORKERS, observer=None)
        traced = observed_run(train_set, dev_set, WORKERS, Observer())
        assert plain.outcomes == traced.outcomes
        assert plain.em == traced.em
        assert plain.ex == traced.ex
        assert plain.telemetry is None
        assert traced.telemetry is not None


class TestAcceptanceFullStack:
    """Fault-injected run through the whole wrapper stack: every
    resilience subsystem must land at least one metric event."""

    @pytest.fixture()
    def telemetry(self, train_set, dev_set):
        observer = Observer()
        cache = PromptCache()

        def build():
            llm = FaultyLLM(
                MockLLM(CHATGPT, seed=2),
                FaultPolicy(
                    rate_limit=0.1,
                    timeout=0.05,
                    server_error=0.05,
                    truncation=0.12,
                    seed=11,
                    scope="task",
                ),
            )
            llm = ResilientLLM(llm, clock=FakeClock())
            llm = CachingLLM(llm, cache=cache)
            return purple(train_set, llm)

        # Two runs over the same workload sharing the observer and the
        # prompt cache: the second is where cache hits come from.
        for _ in range(2):
            report = evaluate_approach(
                build(), dev_set, limit=LIMIT, workers=WORKERS,
                observer=observer,
            )
        assert report.telemetry is not None
        return observer.telemetry()

    def test_every_subsystem_reported(self, telemetry):
        assert telemetry.tasks == 2 * LIMIT
        # Retry path (transient faults retried by ResilientLLM).
        assert telemetry.llm_retries > 0
        assert telemetry.llm_attempts > telemetry.llm_retries
        # Cache path (second run served from the shared prompt cache).
        assert telemetry.cache_hits > 0
        assert telemetry.cache_misses > 0
        assert 0.0 < telemetry.cache_hit_rate < 1.0
        # Degradation path (truncations skip retries, walk the ladder).
        assert telemetry.degraded > 0
        assert sum(telemetry.degradation_levels.values()) >= 2 * LIMIT
        # Executor path (EM/EX scoring executes SQL).
        assert telemetry.executor_statements > 0
        assert telemetry.events > 0

    def test_telemetry_serializes(self, telemetry):
        import json

        payload = json.loads(json.dumps(telemetry.as_dict()))
        assert payload["tasks"] == 2 * LIMIT


#: Hot enough that the consistency vote regularly elects a failing
#: query, so the repair loop actually triggers on a small limit.
_SLOPPY = dataclasses.replace(
    CHATGPT, name="sloppy", hallucination_rate=0.5
)


def repair_purple(train, llm, **overrides):
    return api.create(
        "purple", llm=llm, train=train, consistency_n=3,
        use_adaption=False, **overrides,
    )


class TestRepairDeterminism:
    """The repair loop must preserve the engine's determinism contract:
    worker-count-invariant under fault injection (repair LLM calls ride
    the same per-task lanes), and byte-identical to seed behaviour when
    disabled."""

    def _faulty_run(self, train_set, dev_set, workers, observer):
        llm = FaultyLLM(
            MockLLM(_SLOPPY, seed=11),
            FaultPolicy(
                rate_limit=0.1, timeout=0.05, server_error=0.05,
                truncation=0.12, seed=11, scope="task",
            ),
        )
        llm = ResilientLLM(llm, clock=FakeClock())
        return evaluate_approach(
            repair_purple(train_set, llm, repair_rounds=2),
            dev_set, limit=LIMIT, workers=workers, observer=observer,
        )

    @staticmethod
    def _shape(report, observer):
        outcomes = [
            (o.ex_id, o.predicted_sql, o.em, o.ex, o.repair_rounds,
             o.repaired)
            for o in report.outcomes
        ]
        spans = [
            (s.span_id, s.parent_id, s.name, s.lane, s.seq)
            for s in observer.tracer.spans()
        ]
        return outcomes, spans

    def test_fault_injected_repair_run_is_worker_invariant(
        self, train_set, dev_set
    ):
        serial_obs = Observer(seed=5)
        serial = self._faulty_run(train_set, dev_set, 1, serial_obs)
        parallel_obs = Observer(seed=5)
        parallel = self._faulty_run(train_set, dev_set, WORKERS, parallel_obs)
        # The loop must actually have run for this test to mean anything.
        assert serial.telemetry.repair_triggered > 0
        assert self._shape(serial, serial_obs) == self._shape(
            parallel, parallel_obs
        )

    def test_repair_disabled_is_byte_identical_to_seed_behavior(
        self, train_set, dev_set
    ):
        def run(**overrides):
            observer = Observer(seed=5)
            report = evaluate_approach(
                repair_purple(
                    train_set, MockLLM(_SLOPPY, seed=11), **overrides
                ),
                dev_set, limit=LIMIT, workers=WORKERS, observer=observer,
            )
            return self._shape(report, observer)

        # repair_rounds=0 (the CLI default) against a build that never
        # mentions repair: same outcomes AND the same trace — the
        # disabled loop adds no spans, metrics, or executor calls.
        assert run(repair_rounds=0) == run()
