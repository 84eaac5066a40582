"""Per-stage and per-task timing for evaluation runs.

The engine wants to answer two questions about a run: *where does the
time go* (prune / skeleton / select / llm / adapt / execute) and *what
latency distribution do tasks see* (p50/p95, throughput).  Pipeline
stages report themselves through the :func:`stage` context manager; the
engine installs a collector around each task with :func:`collect_stages`
and assembles the per-task records into a :class:`RunTiming`.

The collector lives in a :class:`contextvars.ContextVar`, so worker
threads time their own task without locking, and code instrumented with
``stage(...)`` is a near-no-op when no evaluation is collecting.

Timing is intentionally kept *outside* :class:`ExampleOutcome`: wall
times differ run to run, while outcomes are the byte-identical part of
the report that determinism tests compare.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.obs import percentile
from repro.obs.runtime import end_span as _obs_end_span
from repro.obs.runtime import start_span as _obs_start_span

#: Canonical stage names in pipeline order (others are allowed).
STAGE_ORDER = (
    "prune", "skeleton", "select", "llm", "adapt", "repair", "execute", "score"
)

_COLLECTOR: ContextVar[Optional[dict]] = ContextVar(
    "repro_stage_collector", default=None
)


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Attribute the enclosed block's wall time to stage ``name``.

    A no-op (beyond one contextvar read each for the collector and the
    observer) when neither timing nor tracing is active.  With an
    observer active the block additionally becomes a ``stage:<name>``
    span in the trace.
    """
    acc = _COLLECTOR.get()
    span = _obs_start_span(f"stage:{name}")
    if acc is None and span is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        if acc is not None:
            acc[name] = acc.get(name, 0.0) + time.perf_counter() - started
        _obs_end_span(span)


@contextmanager
def collect_stages(into: dict) -> Iterator[dict]:
    """Install ``into`` as the stage collector for the enclosed block."""
    token = _COLLECTOR.set(into)
    try:
        yield into
    finally:
        _COLLECTOR.reset(token)


@dataclass
class TaskTiming:
    """Wall-clock record for one evaluated task."""

    ex_id: str
    latency: float
    stages: dict = field(default_factory=dict)


@dataclass
class RunTiming:
    """Wall-clock profile of one evaluation run.

    ``wall_time`` is the end-to-end dispatch time; ``tasks`` holds one
    :class:`TaskTiming` per outcome, in task order.
    """

    wall_time: float = 0.0
    workers: int = 1
    tasks: list = field(default_factory=list)

    def throughput(self) -> float:
        """Tasks completed per second of wall time."""
        if self.wall_time <= 0.0:
            return 0.0
        return len(self.tasks) / self.wall_time

    def latencies(self) -> list:
        """Per-task latencies in task order."""
        return [t.latency for t in self.tasks]

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) of task latency
        (:func:`repro.obs.percentile`)."""
        return percentile(self.latencies(), q)

    def stage_totals(self) -> dict:
        """Total seconds per stage, canonical stages first."""
        totals: dict[str, float] = {}
        for task in self.tasks:
            for name, seconds in task.stages.items():
                totals[name] = totals.get(name, 0.0) + seconds
        ordered = {k: totals.pop(k) for k in STAGE_ORDER if k in totals}
        ordered.update(dict(sorted(totals.items())))
        return ordered
