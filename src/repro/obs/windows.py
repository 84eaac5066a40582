"""Sliding-window metrics: trailing-window rates and latency quantiles.

The cumulative :class:`~repro.obs.metrics.MetricsRegistry` answers
"since boot"; this module answers "right now".  Each primitive is a
ring of per-interval slots covering the trailing window — a counter
slot is one float, a histogram slot is one bucketed
:class:`~repro.obs.metrics.HistogramSummary` — lazily invalidated
against an injectable monotonic clock (the same
:class:`~repro.llm.resilient.Clock` surface the admission controller
uses), so rotation needs no background thread and tests drive it
deterministically with :class:`~repro.llm.resilient.FakeClock`.

Staleness is tracked per slot by the absolute interval index it last
held: a writer landing on a recycled slot resets it first, so a window
that saw no traffic for a full rotation reads zero without anyone
having swept it.  Observations age out at slot granularity — the
window is "the last ``window_s`` seconds, rounded down to the current
``resolution_s`` interval".

Windowed quantiles are *estimates*: :meth:`HistogramSummary.quantile`
interpolates linearly inside the bucket that holds the rank, so a
windowed p95 is only as exact as :data:`LATENCY_BUCKET_BOUNDS_MS` is
fine.  :func:`~repro.obs.metrics.percentile` (and ``repro report``)
take the nearest rank over raw samples instead.

:class:`WindowedMetrics` keys counters and histograms by the same
canonical ``name{labels}`` strings as the cumulative registry, so the
``/v1/metrics`` payload and ``repro top`` parse both sides with one
:func:`~repro.obs.metrics.parse_metric_key`.
"""

from __future__ import annotations

from threading import Lock
from typing import Callable, Optional

from repro.llm.resilient import Clock, SystemClock
from repro.obs.metrics import (
    LATENCY_BUCKET_BOUNDS_MS,
    HistogramSummary,
    metric_key,
)

#: Slot width of the ``/v1/metrics`` windows, in seconds.
RESOLUTION_S = 1.0


def _slot_count(window_s: float, resolution_s: float) -> int:
    if resolution_s <= 0:
        raise ValueError(f"resolution_s must be positive, got {resolution_s}")
    slots = round(window_s / resolution_s)
    if slots < 1:
        raise ValueError(f"window_s must span at least one {resolution_s:g} s "
                         f"slot, got {window_s}")
    return int(slots)


class _Ring:
    """Per-interval slots over the trailing ``window_s`` seconds.

    ``fresh`` makes an empty slot.  Subclasses fold values into
    :meth:`_slot` and read :meth:`_live`, both under ``_lock``.
    """

    def __init__(self, window_s: float, resolution_s: float,
                 clock: Optional[Clock], fresh: Callable):
        slots = _slot_count(window_s, resolution_s)
        self.window_s = float(window_s)
        self.resolution_s = float(resolution_s)
        self.clock = clock or SystemClock()
        self._fresh = fresh
        self._slots = [fresh() for _ in range(slots)]
        #: Absolute interval index each slot last belonged to; -1 = never.
        self._marks = [-1] * slots
        self._lock = Lock()

    def _interval(self) -> int:
        return int(self.clock.monotonic() // self.resolution_s)

    def _slot(self) -> int:
        """The current interval's slot index, reset if it went stale."""
        interval = self._interval()
        index = interval % len(self._slots)
        if self._marks[index] != interval:
            self._marks[index] = interval
            self._slots[index] = self._fresh()
        return index

    def _live(self) -> list:
        """The slots still inside the window."""
        interval = self._interval()
        horizon = interval - len(self._slots)
        return [
            slot for mark, slot in zip(self._marks, self._slots)
            if horizon < mark <= interval
        ]


class WindowedCounter(_Ring):
    """A rate counter over the trailing ``window_s`` seconds."""

    def __init__(self, window_s: float = 60.0,
                 resolution_s: float = RESOLUTION_S,
                 clock: Optional[Clock] = None):
        super().__init__(window_s, resolution_s, clock, float)

    def add(self, value: float = 1.0) -> None:
        """Fold ``value`` into the current interval's slot."""
        with self._lock:
            self._slots[self._slot()] += value

    def total(self) -> float:
        """Sum of observations still inside the window."""
        with self._lock:
            return sum(self._live())

    def rate(self) -> float:
        """Observations per second over the window."""
        return self.total() / self.window_s


def _latency_summary() -> HistogramSummary:
    return HistogramSummary(bounds=LATENCY_BUCKET_BOUNDS_MS)


class WindowedHistogram(_Ring):
    """A latency histogram over the trailing window.

    Each slot is one :class:`HistogramSummary` over
    :data:`LATENCY_BUCKET_BOUNDS_MS`; :meth:`summary` merges the live
    slots into a single summary whose ``quantile`` gives the window's
    p50/p95/p99 estimates.
    """

    def __init__(self, window_s: float = 60.0,
                 resolution_s: float = RESOLUTION_S,
                 clock: Optional[Clock] = None):
        super().__init__(window_s, resolution_s, clock, _latency_summary)

    def observe(self, value: float) -> None:
        """Fold one observation into the current interval's slot."""
        with self._lock:
            self._slots[self._slot()].add(value)

    def summary(self) -> HistogramSummary:
        """One merged summary of every observation still in the window."""
        merged = _latency_summary()
        with self._lock:
            for slot in self._live():
                merged.merge(slot)
        return merged


class WindowedMetrics:
    """The sliding-window twin of the cumulative metrics registry.

    Counters and histograms are keyed by the canonical ``name{labels}``
    strings of :func:`~repro.obs.metrics.metric_key`; every key gets its
    own ring sharing this registry's window and clock, at
    :data:`RESOLUTION_S`.  ``snapshot`` is JSON-ready and
    deterministically ordered.
    """

    def __init__(self, window_s: float = 60.0,
                 clock: Optional[Clock] = None):
        _slot_count(window_s, RESOLUTION_S)  # validate early
        self.window_s = float(window_s)
        self.clock = clock or SystemClock()
        self._counters: dict = {}
        self._histograms: dict = {}
        self._lock = Lock()

    def _ring(self, rings: dict, key: str, kind):
        with self._lock:
            ring = rings.get(key)
            if ring is None:
                ring = rings[key] = kind(self.window_s, clock=self.clock)
            return ring

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment a windowed rate counter."""
        self._ring(self._counters, metric_key(name, labels),
                   WindowedCounter).add(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Fold one observation into a windowed histogram."""
        self._ring(self._histograms, metric_key(name, labels),
                   WindowedHistogram).observe(value)

    def counter_total(self, name: str, **labels) -> float:
        """One windowed counter's in-window total (0.0 when unseen)."""
        with self._lock:
            counter = self._counters.get(metric_key(name, labels))
        return counter.total() if counter is not None else 0.0

    def snapshot(self) -> dict:
        """JSON-ready windowed truth, deterministically ordered.

        Counters report ``{"total", "rate"}`` over the window;
        histograms report the full bucketed summary (count / total /
        min / max / bounds / buckets / p50 / p95 / p99).
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "window_s": self.window_s,
            "resolution_s": RESOLUTION_S,
            "counters": {
                key: {
                    "total": round(counter.total(), 6),
                    "rate": round(counter.rate(), 6),
                }
                for key, counter in sorted(counters.items())
            },
            "histograms": {
                key: histogram.summary().as_dict()
                for key, histogram in sorted(histograms.items())
            },
        }
