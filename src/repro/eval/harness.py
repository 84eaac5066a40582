"""The experiment harness: run an approach over a dataset, score it.

An *approach* is anything implementing the small protocol below —
PURPLE, every baseline, and ablated variants all plug in the same way,
which is how the benchmark scripts regenerate the paper's tables.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.eval.cost import TokenUsage
from repro.eval.engine import map_ordered
from repro.eval.exact_match import exact_set_match
from repro.eval.execution import GoldExecutionError, execution_match
from repro.eval.test_suite import build_test_suite
from repro.eval.timing import RunTiming
from repro.llm.degrade import best_effort_sql
from repro.llm.errors import LLMError, failure_fields
from repro.obs import runtime as obs
from repro.obs.report import stage_totals
from repro.obs.telemetry import RunTelemetry
from repro.schema import Database, SQLiteExecutor, exception_text
from repro.spider.dataset import Dataset

HARDNESS_ORDER = ("easy", "medium", "hard", "extra")


@dataclass
class TranslationTask:
    """What an approach sees for one query: the question and the database.

    The gold SQL is deliberately *not* part of the task.
    """

    question: str
    database: Database

    @property
    def db_id(self) -> str:
        """The task database's identifier."""
        return self.database.db_id


@dataclass
class TranslationResult:
    """An approach's answer plus its API cost and resilience record.

    The resilience fields default to the happy path (no degradation, no
    retries) so approaches without a fault-handling layer are unchanged.
    ``best_effort`` marks answers produced by the last-resort fallback
    after every prompt rung failed — executable but not LLM-derived.
    ``repair_rounds`` counts execution-feedback repair rounds spent on
    this answer and ``repaired`` whether one of them recovered it (both
    zero-valued on approaches without the repair loop).
    """

    sql: str
    usage: TokenUsage = field(default_factory=TokenUsage)
    degradation_level: int = 0
    retries: int = 0
    best_effort: bool = False
    events: tuple = ()
    repair_rounds: int = 0
    repaired: bool = False

    @classmethod
    def exhausted(
        cls,
        schema,
        outcome,
        *,
        usage: Optional[TokenUsage] = None,
        retries: Optional[int] = None,
        events: Optional[tuple] = None,
    ) -> "TranslationResult":
        """The best-effort answer once ``outcome``'s ladder ran dry.

        ``usage``, ``retries`` and ``events`` default to the ladder's
        own; approaches that made calls outside the ladder pass totals.
        """
        return cls(
            sql=best_effort_sql(schema),
            usage=usage if usage is not None else TokenUsage(),
            degradation_level=outcome.level,
            retries=outcome.retries if retries is None else retries,
            best_effort=True,
            events=outcome.events if events is None else events,
        )


class NL2SQLApproach(Protocol):
    """The protocol every approach implements."""

    name: str

    def translate(self, task: TranslationTask) -> TranslationResult:
        """Translate one NL question to SQL (NL2SQLApproach protocol)."""
        ...


@dataclass
class ExampleOutcome:
    """Per-example scoring record.

    ``answered`` is False when the approach could not produce an
    LLM-derived answer (best-effort fallback or an unhandled provider
    error); ``eval_error`` marks tasks whose *gold* SQL failed to
    execute — those are excluded from the accuracy rates.
    """

    ex_id: str
    hardness: str
    predicted_sql: str
    em: bool
    ex: bool
    ts: Optional[bool] = None
    usage: TokenUsage = field(default_factory=TokenUsage)
    answered: bool = True
    degradation_level: int = 0
    retries: int = 0
    eval_error: Optional[str] = None
    repair_rounds: int = 0
    repaired: bool = False


@dataclass
class EvaluationReport:
    """Aggregated metrics for one (approach, dataset) run.

    ``timing`` profiles the run (wall time and latency percentiles, plus
    per-stage seconds folded from the span tree when the run was
    observed) and ``telemetry`` rolls up what the wrapper stack did
    (cache hits, retries, breaker openings, degradations) when the run
    was observed; both are deliberately separate from ``outcomes``,
    which stay byte-identical across worker counts and with telemetry
    on or off.
    """

    approach: str
    dataset: str
    outcomes: list = field(default_factory=list)
    timing: Optional[RunTiming] = None
    telemetry: Optional[RunTelemetry] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    def scored(self) -> list:
        """Outcomes that count toward accuracy (gold executed cleanly)."""
        return [o for o in self.outcomes if o.eval_error is None]

    @property
    def em(self) -> float:
        """Exact-set-match accuracy."""
        return _rate([o.em for o in self.scored()])

    @property
    def ex(self) -> float:
        """Execution-match accuracy."""
        return _rate([o.ex for o in self.scored()])

    @property
    def ts(self) -> float:
        """Test-suite accuracy over the scored outcomes."""
        scored = [o.ts for o in self.scored() if o.ts is not None]
        return _rate(scored)

    @property
    def availability(self) -> float:
        """Fraction of tasks that got an LLM-derived answer.

        Accuracy says how *good* the answers were; availability says how
        often the service produced one at all under faults.
        """
        return _rate([o.answered for o in self.outcomes])

    @property
    def eval_errors(self) -> int:
        """Tasks skipped because their gold SQL failed to execute."""
        return sum(1 for o in self.outcomes if o.eval_error is not None)

    @property
    def total_retries(self) -> int:
        """Provider retries summed over all tasks."""
        return sum(o.retries for o in self.outcomes)

    @property
    def total_repair_rounds(self) -> int:
        """Execution-feedback repair rounds summed over all tasks."""
        return sum(o.repair_rounds for o in self.outcomes)

    @property
    def repaired_count(self) -> int:
        """Tasks whose answer was recovered by the repair loop."""
        return sum(1 for o in self.outcomes if o.repaired)

    def retries_per_query(self) -> float:
        """Average provider retries per evaluated query."""
        if not self.outcomes:
            return 0.0
        return self.total_retries / len(self.outcomes)

    def by_hardness(self, metric: str = "em") -> dict:
        """Per-hardness-level accuracy for the given metric."""
        buckets: dict[str, list[bool]] = {}
        for outcome in self.scored():
            value = getattr(outcome, metric)
            if value is None:
                continue
            buckets.setdefault(outcome.hardness, []).append(value)
        return {
            level: _rate(buckets[level])
            for level in HARDNESS_ORDER
            if level in buckets
        }

    @property
    def usage(self) -> TokenUsage:
        """Total token usage across all outcomes."""
        total = TokenUsage()
        for outcome in self.outcomes:
            total.add(outcome.usage)
        return total

    def tokens_per_query(self) -> int:
        """Average total tokens per evaluated query."""
        if not self.outcomes:
            return 0
        return self.usage.total_tokens // len(self.outcomes)


def _rate(values: list) -> float:
    if not values:
        return 0.0
    return sum(1 for v in values if v) / len(values)


def evaluate_approach(
    approach: NL2SQLApproach,
    dataset: Dataset,
    test_suites: Optional[dict] = None,
    limit: Optional[int] = None,
    workers: int = 1,
    observer=None,
) -> EvaluationReport:
    """Run ``approach`` over ``dataset`` and compute EM/EX (and TS when
    suites are supplied as ``{db_id: TestSuite}``).

    ``workers`` sizes the thread pool; outcomes are reassembled in task
    order, so any worker count yields the identical report (timing
    aside).  Each worker thread scores on its own
    :class:`~repro.schema.SQLiteExecutor`.

    Pass an ``observer`` (:class:`repro.obs.Observer`) to trace the run:
    every task gets a root span with per-stage children, the wrapper
    stack feeds the metrics registry, and the report's ``telemetry``
    field carries the roll-up.  Outcomes are byte-identical with or
    without one.
    """
    report = EvaluationReport(approach=approach.name, dataset=dataset.name)
    examples = dataset.examples[:limit] if limit else dataset.examples
    needed_dbs = sorted({ex.db_id for ex in examples})

    # One scoring executor per worker thread, created on first use and
    # closed when the run is over.
    thread_state = threading.local()
    executors: list = []
    executors_lock = threading.Lock()

    def _executor() -> SQLiteExecutor:
        executor = getattr(thread_state, "executor", None)
        if executor is None:
            executor = SQLiteExecutor()
            for db_id in needed_dbs:
                executor.register(dataset.database(db_id))
            thread_state.executor = executor
            with executors_lock:
                executors.append(executor)
        return executor

    def _evaluate_one(example) -> ExampleOutcome:
        task = TranslationTask(
            question=example.question,
            database=dataset.database(example.db_id),
        )
        obs.annotate(hardness=example.hardness, db_id=example.db_id)
        obs.count("tasks.evaluated")
        try:
            result = approach.translate(task)
        except LLMError as exc:
            # An approach without a degradation ladder let a provider
            # error through: record an unanswered outcome and keep the
            # run alive rather than losing every task after this one.
            obs.count("tasks.unanswered")
            obs.event(
                "task.unanswered",
                level="error",
                ex_id=example.ex_id,
                **failure_fields(exc),
            )
            return ExampleOutcome(
                ex_id=example.ex_id,
                hardness=example.hardness,
                predicted_sql="",
                em=False,
                ex=False,
                answered=False,
                eval_error=None,
                retries=0,
            )
        eval_error = None
        with obs.span("stage:execute"):
            try:
                ex = execution_match(
                    _executor(), example.db_id, example.sql, result.sql
                )
            except GoldExecutionError as exc:
                ex = False
                eval_error = exception_text(exc)
                fields = {"error": eval_error}
                if exc.info is not None:
                    fields["error_code"] = exc.info.code
                obs.count("tasks.eval_errors")
                obs.event(
                    "task.eval_error",
                    level="warning",
                    ex_id=example.ex_id,
                    **fields,
                )
        with obs.span("stage:score"):
            em = exact_set_match(example.sql, result.sql)
            ts = None
            if (
                eval_error is None
                and test_suites is not None
                and example.db_id in test_suites
            ):
                ts = test_suites[example.db_id].match(example.sql, result.sql)
        obs.annotate(
            em=em,
            ex=ex,
            degradation_level=result.degradation_level,
            retries=result.retries,
        )
        return ExampleOutcome(
            ex_id=example.ex_id,
            hardness=example.hardness,
            predicted_sql=result.sql,
            em=em,
            ex=ex,
            ts=ts,
            usage=result.usage,
            answered=not result.best_effort,
            degradation_level=result.degradation_level,
            retries=result.retries,
            eval_error=eval_error,
            repair_rounds=result.repair_rounds,
            repaired=result.repaired,
        )

    if observer is not None:
        _publish_index_stats(approach, observer)
        traced_from = observer.tracer.now()
    started = time.perf_counter()
    try:
        outcomes, latencies = map_ordered(
            _evaluate_one,
            examples,
            workers=workers,
            lane_of=lambda example: example.ex_id,
            observer=observer,
        )
    finally:
        with executors_lock:
            for executor in executors:
                executor.close()
    report.outcomes = list(outcomes)
    report.timing = RunTiming(
        wall_time=time.perf_counter() - started,
        workers=max(workers, 1),
        latencies=latencies,
    )
    if observer is not None:
        report.telemetry = observer.telemetry()
        # Only this run's spans: an observer may be shared across runs.
        lanes = {example.ex_id for example in examples}
        report.timing.stages = stage_totals(
            span.as_dict()
            for span in observer.tracer.spans()
            if span.lane in lanes and span.start >= traced_from
        )
    return report


def _publish_index_stats(approach, observer) -> None:
    """Surface the approach's demonstration-index size in the run.

    ``fit`` usually runs before an observer exists, so its
    ``index.build`` instrumentation lands nowhere.  Any approach that
    records ``index_stats`` at fit time (PURPLE does — pool size and
    per-level state counts) gets them re-emitted here as gauges.
    """
    stats = getattr(approach, "index_stats", None)
    if not stats:
        return
    with observer.activate():
        obs.gauge("index.pool_size", stats.get("pool_size", 0))
        for level, states in sorted(stats.get("states", {}).items()):
            obs.gauge("index.states", states, level=str(level))


def build_suites_for_dataset(
    dataset: Dataset, folds: int = 6, seed: int = 0
) -> dict:
    """One distilled test suite per database in the dataset."""
    suites = {}
    sql_by_db: dict[str, list] = {}
    for ex in dataset.examples:
        sql_by_db.setdefault(ex.db_id, []).append(ex.sql)
    for db_id, database in dataset.databases.items():
        suites[db_id] = build_test_suite(
            database, sql_by_db.get(db_id, []), folds=folds, seed=seed
        )
    return suites
