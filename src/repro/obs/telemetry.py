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

from dataclasses import dataclass, field, fields

from repro.obs.metrics import MetricsSnapshot

#: Where :meth:`RunTelemetry.from_metrics` reads each field: ``(field,
#: metric, kind)``.  ``counter`` reads the unlabelled counter and
#: ``labelled`` keeps the per-label counts as a key-sorted dict.  ``events`` is not a metric
#: and is passed in by the caller.
_SOURCES = (
    ("tasks", "tasks.evaluated", "counter"),
    ("llm_attempts", "llm.attempts", "counter"),
    ("llm_retries", "llm.retries", "counter"),
    ("breaker_opens", "llm.breaker.opens", "counter"),
    ("fallbacks", "llm.fallbacks", "counter"),
    ("cache_hits", "cache.hits", "counter"),
    ("cache_misses", "cache.misses", "counter"),
    ("degradation_levels", "degrade.level", "labelled"),
    ("degrade_exhausted", "degrade.exhausted", "counter"),
    ("executor_statements", "executor.statements", "counter"),
    ("executor_timeouts", "executor.timeouts", "counter"),
    ("executor_cache_hits", "executor.cache_hits", "counter"),
    ("executor_cache_misses", "executor.cache_misses", "counter"),
    ("index_builds", "index.builds", "counter"),
    ("repair_triggered", "repair.triggered", "counter"),
    ("repair_rounds", "repair.rounds", "counter"),
    ("repair_success_depth", "repair.success_depth", "labelled"),
    ("repair_abandoned", "repair.abandoned", "labelled"),
    ("diagnostics", "analysis.rule", "labelled"),
)

#: Derived values :meth:`RunTelemetry.as_dict` places right after a
#: field: ``field -> (key, value of the roll-up)``.
_DERIVED_AFTER = {
    "cache_misses": ("cache_hit_rate", lambda t: round(t.cache_hit_rate, 4)),
    "degradation_levels": ("degraded", lambda t: t.degraded),
    "repair_rounds": ("repair_recovered", lambda t: t.repair_recovered),
}


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
    #: Demonstration-index builds (one per fitted PURPLE instance).
    index_builds: int = 0
    #: Execution-feedback repair (docs/repair.md): tasks that entered the
    #: loop, total rounds run, recoveries keyed by the round that healed
    #: them (``{"1": 5, "2": 1}``), and abandonments keyed by reason.
    repair_triggered: int = 0
    repair_rounds: int = 0
    repair_success_depth: dict = field(default_factory=dict)
    repair_abandoned: dict = field(default_factory=dict)
    #: Per-rule static-analysis counts: ``{"sql.unknown-column": 4, ...}``.
    diagnostics: dict = field(default_factory=dict)
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
        readers = {
            "counter": snapshot.counter,
            "labelled": lambda name: dict(
                sorted(snapshot.labelled(name).items())
            ),
        }
        return cls(
            events=events,
            **{name: readers[kind](metric) for name, metric, kind in _SOURCES},
        )

    def as_dict(self) -> dict:
        """JSON-ready form (what ``repro report`` and benches render)."""
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
            if f.name in _DERIVED_AFTER:
                key, value = _DERIVED_AFTER[f.name]
                out[key] = value(self)
        return out
