"""The graceful-degradation ladder shared by PURPLE and the baselines.

When a request fails past the resilience layer (a truncated completion,
a persistent outage, an open breaker), crashing the translation is the
worst answer: the harness loses the whole run.  Instead every approach
walks a *ladder* of progressively cheaper prompts — full prompt → fewer
demonstrations at a smaller budget → zero-shot — and, when every rung
fails, returns a best-effort ``SELECT`` so the task still produces an
executable answer.  Benches then report availability alongside accuracy.

Rungs are thunks returning :class:`~repro.llm.interface.LLMRequest` so
the cheaper prompts are only built when actually needed — on the happy
path the first rung is the exact request the approach always made,
keeping no-fault behaviour bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.llm.errors import LLMError, failure_fields, failure_label
from repro.llm.interface import LLM, LLMRequest, LLMResponse
from repro.llm.resilient import count_retries
from repro.obs import runtime as obs


@dataclass
class LadderOutcome:
    """Which rung answered (if any) and what failed on the way down."""

    response: Optional[LLMResponse]
    #: Index of the rung that succeeded; ``len(rungs)`` when none did.
    level: int
    #: One ``"ErrorType@rung"`` entry per failed rung.
    events: tuple = ()
    #: Provider retries the ladder's own calls made (see
    #: :func:`~repro.llm.resilient.count_retries`).
    retries: int = 0

    @property
    def ok(self) -> bool:
        """True when some rung produced a response."""
        return self.response is not None


def run_ladder(
    llm: LLM,
    rungs: Sequence[Callable[[], LLMRequest]],
    first_rung: int = 0,
) -> LadderOutcome:
    """Try each rung in order until one completes.

    Only :class:`LLMError` moves the ladder down a rung — anything else
    is a bug and propagates.

    ``first_rung`` names the absolute ladder position of ``rungs[0]``
    when a caller enters the ladder below the top — the serving layer's
    load shedding demotes overloaded requests this way (it passes the
    cheaper tail of the ladder plus its offset).  Reported levels,
    rung labels, and the outcome's ``level`` are all absolute, so a
    demoted request is indistinguishable in telemetry from one that
    degraded to the same rung under faults.
    """
    events: list = []
    with count_retries() as tally:
        for level, make_request in enumerate(rungs, start=first_rung):
            with obs.span("llm.rung", rung=level) as rung_span:
                try:
                    response = llm.complete(make_request())
                except LLMError as exc:
                    events.append(failure_label(exc, level))
                    if rung_span is not None:
                        rung_span.attrs.update(failure_fields(exc))
                    obs.count("degrade.rung_failures")
                    obs.event(
                        "degrade.rung_failed",
                        level="warning",
                        rung=level,
                        **failure_fields(exc),
                    )
                    continue
            obs.count("degrade.level", level=level)
            if level > 0:
                obs.event("degrade.answered_below_full", rung=level)
            return LadderOutcome(
                response=response,
                level=level,
                events=tuple(events),
                retries=tally.retries,
            )
    exhausted = first_rung + len(rungs)
    obs.count("degrade.level", level=exhausted)
    obs.count("degrade.exhausted")
    obs.event("degrade.exhausted", level="error", rungs=len(rungs))
    return LadderOutcome(
        response=None,
        level=exhausted,
        events=tuple(events),
        retries=tally.retries,
    )


def best_effort_sql(schema) -> str:
    """The last-resort answer: select everything from the first table.

    Always executable, never accurate — it keeps availability at 100%
    while scoring 0 on EM/EX, which is the honest way to fail.
    """
    if getattr(schema, "tables", None):
        return f"SELECT * FROM {schema.tables[0].name}"
    return "SELECT 1"
