"""The typed telemetry roll-up attached to evaluation reports.

:class:`RunTelemetry` condenses a run's metrics registry into the
handful of numbers an operator actually tunes on: how often the prompt
cache saved a provider call, how many retries and breaker openings the
fault load caused, which degradation rungs answered, and what the SQL
executor absorbed.  It lives on
:attr:`repro.eval.harness.EvaluationReport.telemetry` when a run is
observed — and is deliberately *not* part of ``outcomes``, which stay
byte-identical with telemetry on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsSnapshot


@dataclass(frozen=True)
class RunTelemetry:
    """What the wrapper stack did during one evaluation run."""

    tasks: int = 0
    llm_attempts: int = 0
    llm_retries: int = 0
    breaker_opens: int = 0
    fallbacks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Final degradation rung per translation: ``{"0": 37, "1": 3, ...}``.
    degradation_levels: dict = field(default_factory=dict)
    degrade_exhausted: int = 0
    executor_statements: int = 0
    executor_timeouts: int = 0
    executor_cache_hits: int = 0
    executor_cache_misses: int = 0
    #: Demonstration-index lifecycle (repro.store): cold builds, warm
    #: loads, shared/cached reuses, and staleness-triggered rebuilds.
    index_builds: int = 0
    index_loads: int = 0
    index_cache_hits: int = 0
    index_rebuilds: int = 0
    #: Static pre-execution guard: predictions checked and skipped.
    guard_checked: int = 0
    guard_skipped: int = 0
    #: Execution-feedback repair (docs/repair.md): tasks that entered the
    #: loop, total rounds run, recoveries keyed by the round that healed
    #: them (``{"1": 5, "2": 1}``), and abandonments keyed by reason.
    repair_triggered: int = 0
    repair_rounds: int = 0
    repair_success_depth: dict = field(default_factory=dict)
    repair_abandoned: dict = field(default_factory=dict)
    #: Per-rule static-analysis counts: ``{"sql.unknown-column": 4, ...}``.
    diagnostics: dict = field(default_factory=dict)
    #: Dialect portability axis (docs/dialects.md): statements analyzed
    #: against a non-SQLite target, ``dlct.*`` findings raised, and
    #: executions the profile executor refused statically.
    dialect_checked: int = 0
    dialect_findings: int = 0
    dialect_rejections: int = 0
    events: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Prompt-cache hits over lookups (0.0 before the first lookup)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def repair_recovered(self) -> int:
        """Tasks the repair loop healed (any depth)."""
        return sum(self.repair_success_depth.values())

    @property
    def degraded(self) -> int:
        """Translations answered below the full-prompt rung."""
        return sum(
            n for level, n in self.degradation_levels.items() if level != "0"
        )

    @classmethod
    def from_metrics(
        cls, snapshot: MetricsSnapshot, events: int = 0
    ) -> "RunTelemetry":
        """Build the roll-up from a registry snapshot."""
        return cls(
            tasks=snapshot.counter("tasks.evaluated"),
            llm_attempts=snapshot.counter("llm.attempts"),
            llm_retries=snapshot.counter("llm.retries"),
            breaker_opens=snapshot.counter("llm.breaker.opens"),
            fallbacks=snapshot.counter("llm.fallbacks"),
            cache_hits=snapshot.counter("cache.hits"),
            cache_misses=snapshot.counter("cache.misses"),
            degradation_levels=dict(
                sorted(snapshot.labelled("degrade.level").items())
            ),
            degrade_exhausted=snapshot.counter("degrade.exhausted"),
            executor_statements=snapshot.counter("executor.statements"),
            executor_timeouts=snapshot.counter("executor.timeouts"),
            executor_cache_hits=snapshot.counter("executor.cache_hits"),
            executor_cache_misses=snapshot.counter("executor.cache_misses"),
            index_builds=snapshot.counter("index.builds"),
            index_loads=snapshot.counter("index.loads"),
            index_cache_hits=snapshot.counter("index.cache_hit"),
            index_rebuilds=snapshot.counter("index.rebuilds"),
            guard_checked=snapshot.counter("guard.checked"),
            guard_skipped=snapshot.counter("guard.skipped"),
            repair_triggered=snapshot.counter("repair.triggered"),
            repair_rounds=snapshot.counter("repair.rounds"),
            repair_success_depth=dict(
                sorted(snapshot.labelled("repair.success_depth").items())
            ),
            repair_abandoned=dict(
                sorted(snapshot.labelled("repair.abandoned").items())
            ),
            diagnostics=dict(
                sorted(snapshot.labelled("analysis.rule").items())
            ),
            dialect_checked=snapshot.counter_total("analysis.dialect.checked"),
            dialect_findings=snapshot.counter_total(
                "analysis.dialect.finding"
            ),
            dialect_rejections=snapshot.counter_total(
                "executor.dialect_rejections"
            ),
            events=events,
        )

    def as_dict(self) -> dict:
        """JSON-ready form (what ``repro report`` and benches render)."""
        return {
            "tasks": self.tasks,
            "llm_attempts": self.llm_attempts,
            "llm_retries": self.llm_retries,
            "breaker_opens": self.breaker_opens,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "degradation_levels": self.degradation_levels,
            "degraded": self.degraded,
            "degrade_exhausted": self.degrade_exhausted,
            "executor_statements": self.executor_statements,
            "executor_timeouts": self.executor_timeouts,
            "executor_cache_hits": self.executor_cache_hits,
            "executor_cache_misses": self.executor_cache_misses,
            "index_builds": self.index_builds,
            "index_loads": self.index_loads,
            "index_cache_hits": self.index_cache_hits,
            "index_rebuilds": self.index_rebuilds,
            "guard_checked": self.guard_checked,
            "guard_skipped": self.guard_skipped,
            "repair_triggered": self.repair_triggered,
            "repair_rounds": self.repair_rounds,
            "repair_recovered": self.repair_recovered,
            "repair_success_depth": self.repair_success_depth,
            "repair_abandoned": self.repair_abandoned,
            "diagnostics": self.diagnostics,
            "dialect_checked": self.dialect_checked,
            "dialect_findings": self.dialect_findings,
            "dialect_rejections": self.dialect_rejections,
            "events": self.events,
        }
