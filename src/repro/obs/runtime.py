"""The active-observer contextvar and the instrumentation helpers.

Instrumented code never holds a reference to a tracer or registry — it
calls the module-level helpers (:func:`span`, :func:`count`,
:func:`event`, ...) which consult one :class:`contextvars.ContextVar`.
When no :class:`Observer` is active each helper is a single contextvar
read followed by an immediate return, so shipping instrumentation in hot
paths costs nothing when telemetry is off.  :func:`span` is the one way
to open a span: pipeline stages are ``stage:<name>`` spans, and the
evaluation harness folds their durations into its per-stage totals.

The engine activates an observer *per task* via :meth:`Observer.task`
(contextvars are per-thread, so worker threads must install it inside
the task, not around the pool); :meth:`Observer.activate` scopes it
around arbitrary non-engine work such as a one-off ``translate``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

from repro.obs.log import StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry
from repro.obs.trace import GLOBAL_LANE, Span, Tracer
from repro.utils.context import current_task_lane

_OBSERVER: ContextVar[Optional["Observer"]] = ContextVar(
    "repro_observer", default=None
)


class Observer:
    """One run's telemetry: a tracer, a metrics registry, and a logger."""

    def __init__(
        self,
        seed: int = 0,
        log_level: str = "info",
        log_sink: Optional[Callable] = None,
    ):
        self.tracer = Tracer(seed=seed)
        self.metrics = MetricsRegistry()
        self.logger = StructuredLogger(level=log_level, sink=log_sink)

    @contextmanager
    def task(self, lane: str) -> Iterator[Span]:
        """Activate for one task and scope its root span."""
        token = _OBSERVER.set(self)
        span = self.tracer.start_span("task", lane=lane)
        try:
            yield span
        finally:
            self.tracer.end_span(span)
            _OBSERVER.reset(token)

    @contextmanager
    def activate(self) -> Iterator["Observer"]:
        """Activate without opening a span (non-engine code paths)."""
        token = _OBSERVER.set(self)
        try:
            yield self
        finally:
            _OBSERVER.reset(token)

    def log(self, name: str, level: str = "info", **fields) -> None:
        """Record a structured event at the current lane and time."""
        span = self.tracer.current_span()
        lane = (
            span.lane
            if span is not None
            else current_task_lane() or GLOBAL_LANE
        )
        self.logger.log(
            name, level=level, lane=lane, t=self.tracer.now(), fields=fields
        )

    def telemetry(self) -> RunTelemetry:
        """The typed roll-up of this observer's metrics."""
        return RunTelemetry.from_metrics(
            self.metrics.snapshot(), events=len(self.logger)
        )


def current_observer() -> Optional[Observer]:
    """The active observer, or None when telemetry is off."""
    return _OBSERVER.get()


@contextmanager
def span(name: str, **attrs) -> Iterator[Optional[Span]]:
    """Scope a child span (yields None when telemetry is off)."""
    observer = _OBSERVER.get()
    if observer is None:
        yield None
        return
    opened = observer.tracer.start_span(name, **attrs)
    try:
        yield opened
    finally:
        observer.tracer.end_span(opened)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span, if any."""
    observer = _OBSERVER.get()
    if observer is None:
        return
    opened = observer.tracer.current_span()
    if opened is not None:
        opened.attrs.update(attrs)


def count(name: str, value: int = 1, **labels) -> None:
    """Increment a counter on the active registry."""
    observer = _OBSERVER.get()
    if observer is not None:
        observer.metrics.count(name, value, **labels)


def gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the active registry."""
    observer = _OBSERVER.get()
    if observer is not None:
        observer.metrics.gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation on the active registry."""
    observer = _OBSERVER.get()
    if observer is not None:
        observer.metrics.observe(name, value, **labels)


def event(name: str, level: str = "info", **fields) -> None:
    """Record a structured event on the active logger."""
    observer = _OBSERVER.get()
    if observer is not None:
        observer.log(name, level=level, **fields)
