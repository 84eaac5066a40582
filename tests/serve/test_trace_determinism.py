"""A served request must be indistinguishable from a batch-engine task.

The acceptance bar for the serving layer: the same question through
``NL2SQLService.translate`` and through :func:`repro.eval.engine.map_ordered`
produces byte-identical SQL and an *identical span tree* (same span ids,
parents, names, lanes, sequence numbers) when both run under observers
with the same tracer seed and the same lane.  Span ids are
``stable_hash(seed, lane, seq)``, so this fails if the service opens
even one extra span or reorders the pipeline's.
"""

import pytest

from repro.api.types import TranslateRequest
from repro.eval.engine import map_ordered
from repro.eval.harness import TranslationTask
from repro.llm.resilient import FakeClock
from repro.obs import Observer
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    NL2SQLService,
    Tenant,
    TenantRegistry,
)

LANE = "det-lane"


def span_tree(observer, lane):
    """The structural identity of one lane's spans."""
    return [
        (s.span_id, s.parent_id, s.name, s.lane, s.seq)
        for s in observer.tracer.spans()
        if s.lane == lane
    ]


@pytest.fixture()
def example(dev_set):
    return dev_set.examples[0]


def make_service(translator, dev_set, observer,
                 policy=None, clock=None, live=None):
    registry = TenantRegistry()
    registry.add(Tenant(tenant_id="acme", data=dev_set,
                        translator=translator))
    controller = AdmissionController(
        policy or AdmissionPolicy(rate=1000.0, burst=1000), clock=clock
    )
    return NL2SQLService(registry, controller, observer=observer, live=live)


class TestServedEqualsBatch:
    def test_sql_and_span_tree_identical(self, train_set, dev_set, example):
        from tests.serve.conftest import make_translator

        # Two identically-fitted instances: per-instance state (the
        # executor's LRU cache) must start equal on both sides, or the
        # second run would skip cached sql.execute spans.
        batch_translator = make_translator(train_set)
        served_translator = make_translator(train_set)

        # Batch engine: one task on the lane, observed.
        batch_observer = Observer(seed=0, log_level="info")
        task = TranslationTask(
            question=example.question,
            database=dev_set.database(example.db_id),
        )
        (batch_result,), _ = map_ordered(
            batch_translator.translate, [task],
            lane_of=lambda t: LANE, observer=batch_observer,
        )

        # Served: same lane (the request id), fresh observer with the
        # same tracer seed.
        served_observer = Observer(seed=0, log_level="info")
        service = make_service(served_translator, dev_set, served_observer)
        status, response = service.translate(TranslateRequest(
            question=example.question, db_id=example.db_id,
            tenant="acme", request_id=LANE,
        ))
        service.close()

        assert status == 200
        assert response.sql == batch_result.sql  # byte-identical
        batch_tree = span_tree(batch_observer, LANE)
        served_tree = span_tree(served_observer, LANE)
        assert batch_tree, "batch run must have produced spans"
        assert served_tree == batch_tree

    def test_resilience_record_carries_over(self, translator, dev_set,
                                            example):
        task = TranslationTask(
            question=example.question,
            database=dev_set.database(example.db_id),
        )
        batch_result = translator.translate(task)
        service = make_service(translator, dev_set, None)
        _, response = service.translate(TranslateRequest(
            question=example.question, db_id=example.db_id, tenant="acme",
        ))
        service.close()
        assert response.sql == batch_result.sql
        assert response.degradation_level == batch_result.degradation_level
        assert response.best_effort == batch_result.best_effort
        assert response.prompt_tokens == batch_result.usage.prompt_tokens
        assert response.output_tokens == batch_result.usage.output_tokens


class TestLiveCaptureDeterminism:
    """The continuous-telemetry layer must not perturb the span tree.

    With live capture enabled, the span tree ``GET /v1/trace/{request_id}``
    returns for a served request is identical to the tree the batch
    engine produces for the same task (same ids — ``stable_hash(seed,
    lane, seq)`` — same parents, names, lanes, seqs), and the stored
    spans match the batch engine's JSONL schema-v1 export of that lane
    on every key but the wall-clock ``start``/``end``.
    """

    def _batch_observer(self, train_set, dev_set, example):
        from tests.serve.conftest import make_translator

        observer = Observer(seed=0, log_level="info")
        task = TranslationTask(
            question=example.question,
            database=dev_set.database(example.db_id),
        )
        map_ordered(
            make_translator(train_set).translate, [task],
            lane_of=lambda t: LANE, observer=observer,
        )
        return observer

    def _batch_tree(self, train_set, dev_set, example):
        return span_tree(
            self._batch_observer(train_set, dev_set, example), LANE
        )

    def _live(self, observer, prune_lanes=True):
        # The live layer always prunes captured lanes; the flag only
        # names what a test relies on.
        from repro.obs import LiveTelemetry

        assert prune_lanes
        return LiveTelemetry(observer)

    def test_trace_endpoint_matches_batch_tree(self, train_set, dev_set,
                                               example):
        from tests.serve.conftest import make_translator

        batch_tree = self._batch_tree(train_set, dev_set, example)

        observer = Observer(seed=0, log_level="info")
        service = make_service(
            make_translator(train_set), dev_set, observer,
            live=self._live(observer),
        )
        status, _ = service.translate(TranslateRequest(
            question=example.question, db_id=example.db_id,
            tenant="acme", request_id=LANE,
        ))
        trace_status, trace = service.trace(LANE)
        service.close()

        assert status == 200 and trace_status == 200
        served_tree = [
            (s["id"], s["parent"], s["name"], s["lane"], s["seq"])
            for s in trace["spans"]
        ]
        assert batch_tree, "batch run must have produced spans"
        assert served_tree == batch_tree

    def test_stored_spans_match_batch_export(
        self, train_set, dev_set, example
    ):
        # The tracer forgets a captured lane, so the reference is the
        # batch engine's JSONL export of the same task on the same lane:
        # every span key (ids, parents, names, lanes, seqs, attrs) must
        # match byte for byte; only the wall-clock start/end differ.
        import json

        from tests.serve.conftest import make_translator

        def untimed(spans):
            return json.dumps(
                [{key: value for key, value in span.items()
                  if key not in ("start", "end")} for span in spans],
                sort_keys=True,
            )

        batch = self._batch_observer(train_set, dev_set, example)
        exported = [span.as_dict() for span in batch.tracer.lane_spans(LANE)]
        observer = Observer(seed=0, log_level="info")
        service = make_service(
            make_translator(train_set), dev_set, observer,
            live=self._live(observer),
        )
        service.translate(TranslateRequest(
            question=example.question, db_id=example.db_id,
            tenant="acme", request_id=LANE,
        ))
        _, trace = service.trace(LANE)
        service.close()
        assert exported, "batch run must have produced spans"
        assert set(exported[0]) == {"type", "id", "parent", "name", "lane",
                                    "seq", "start", "end", "attrs"}
        assert untimed(trace["spans"]) == untimed(exported)

    def test_pruned_lane_replays_identical_span_ids(self, translator,
                                                    dev_set, example):
        # With prune_lanes (the `repro serve` default) the tracer
        # forgets each captured lane — so a replayed request id derives
        # the very same span ids, and tracer memory stays bounded.
        observer = Observer(seed=0, log_level="info")
        service = make_service(
            translator, dev_set, observer,
            live=self._live(observer, prune_lanes=True),
        )
        request = TranslateRequest(
            question=example.question, db_id=example.db_id,
            tenant="acme", request_id=LANE,
        )
        service.translate(request)
        _, first = service.trace(LANE)
        assert len(observer.tracer) == 0, "lane pruned after capture"
        service.translate(request)
        _, second = service.trace(LANE)
        service.close()

        def tree(trace):
            return [
                (s["id"], s["parent"], s["name"], s["lane"], s["seq"])
                for s in trace["spans"]
            ]

        assert tree(first) == tree(second)


class TestShedding:
    def test_shed_request_is_served_demoted_not_dropped(
        self, translator, dev_set, example
    ):
        # An empty bucket sheds every request after the first.
        clock = FakeClock()
        service = make_service(
            translator, dev_set, Observer(seed=0, log_level="info"),
            policy=AdmissionPolicy(rate=0.001, burst=1), clock=clock,
        )
        request = TranslateRequest(
            question=example.question, db_id=example.db_id, tenant="acme",
        )
        status_full, full = service.translate(request)
        status_shed, shed = service.translate(request)
        service.close()
        assert status_full == 200 and not full.shed
        assert status_shed == 200, "shed requests are served, not dropped"
        assert shed.shed
        assert shed.sql.upper().startswith("SELECT")
        # Demotion entered the ladder below the top rung.
        assert shed.degradation_level >= 1
        assert full.degradation_level == 0

    def test_full_quality_path_unaffected_by_shed_support(
        self, translator, dev_set, example
    ):
        # min_rung=0 must be byte-identical to a direct translate.
        task = TranslationTask(
            question=example.question,
            database=dev_set.database(example.db_id),
        )
        direct = translator.translate(task)
        via_min_rung = translator.translate(task, min_rung=0)
        assert via_min_rung.sql == direct.sql
        assert via_min_rung.degradation_level == direct.degradation_level
