"""The metrics registry: counters, gauges, and histograms.

Instrumented layers report what happened — a retry, a cache hit, a
breaker opening, a degradation rung reached — as named metrics with
optional labels.  The registry is a passive accumulator: thread-safe,
allocation-light, and snapshotted into plain dicts for reporting and
the JSONL trace.

Metric keys are canonical strings — ``name`` or ``name{k=v,k2=v2}``
with labels sorted by key — so snapshots are deterministic and the
``repro report`` renderer can parse them back without a schema.

Histograms keep a bounded summary (count / total / min / max), not the
raw samples: the high-cardinality timing data lives in spans, while
histograms cover low-volume distributions like backoff waits.  A
summary constructed with fixed ``bounds`` additionally keeps one count
per bucket, which is enough to estimate quantiles (p50/p95/p99) without
retaining samples — the continuous serving telemetry
(:mod:`repro.obs.windows`) builds on that.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from threading import Lock

#: Default latency bucket upper bounds (milliseconds) for quantile
#: estimation on serving-path histograms.  Geometric-ish spacing from
#: sub-millisecond to ten seconds, the span a served request can take.
LATENCY_BUCKET_BOUNDS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


def metric_key(name: str, labels: dict) -> str:
    """The canonical string key for ``name`` with ``labels``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of raw samples.

    ``ceil(q/100 * n)`` is the nearest-rank definition: p95 over 100
    samples is the 95th order statistic, p0 and p100 clamp to the
    extremes.  ``values`` may be in any order; an empty input gives 0.
    Bucketed histograms estimate quantiles by interpolation instead
    (:meth:`HistogramSummary.quantile`).
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def parse_metric_key(key: str) -> tuple:
    """Invert :func:`metric_key` into ``(name, labels_dict)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels = {}
    for part in inner.split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


@dataclass
class HistogramSummary:
    """Bounded summary of one observed distribution.

    Without ``bounds`` this is the original count/total/min/max record.
    With ``bounds`` (ascending bucket upper bounds) it also keeps
    ``len(bounds) + 1`` bucket counts (the last is the overflow bucket)
    and can estimate quantiles by linear interpolation inside the
    bucket holding the target rank.  ``as_dict`` stays backward
    compatible: the four original keys are always present, and the
    bucket/quantile keys appear only when bounds were configured.
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    bounds: tuple = ()
    buckets: list = field(default_factory=list)

    def __post_init__(self):
        self.bounds = tuple(self.bounds)
        if self.bounds and list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be ascending")
        if self.bounds and not self.buckets:
            self.buckets = [0] * (len(self.bounds) + 1)

    def add(self, value: float) -> None:
        """Fold one observation into the summary."""
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value
        if self.bounds:
            self.buckets[bisect_left(self.bounds, value)] += 1

    def merge(self, other: "HistogramSummary") -> None:
        """Fold another summary into this one (bounds must match)."""
        if other.count == 0:
            return
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.bounds} vs {other.bounds})"
            )
        if self.count == 0:
            self.min, self.max = other.min, other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total
        if self.bounds:
            self.buckets = [
                a + b for a, b in zip(self.buckets, other.buckets)
            ]

    @property
    def mean(self) -> float:
        """Average observed value (0.0 before the first observation)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float):
        """Estimate the ``q``-quantile from the fixed buckets.

        Linear interpolation inside the bucket holding the target rank,
        clamped to the observed ``[min, max]``; the overflow bucket
        interpolates toward the observed max.  Returns ``None`` when the
        summary has no bounds (nothing to estimate from) and 0.0 before
        the first observation.
        """
        if not self.bounds:
            return None
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0.0
        for i, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i else 0.0
                upper = (
                    self.bounds[i] if i < len(self.bounds) else self.max
                )
                position = max(0.0, rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * position
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def as_dict(self) -> dict:
        out = {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
        }
        if self.bounds:
            out["bounds"] = list(self.bounds)
            out["buckets"] = list(self.buckets)
            out["p50"] = round(self.quantile(0.50), 6)
            out["p95"] = round(self.quantile(0.95), 6)
            out["p99"] = round(self.quantile(0.99), 6)
        return out


@dataclass(frozen=True)
class MetricsSnapshot:
    """A consistent point-in-time copy of a registry's contents."""

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def counter(self, name: str, **labels) -> int:
        """One counter's value (0 when never incremented)."""
        return self.counters.get(metric_key(name, labels), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter over all label combinations."""
        return sum(
            value
            for key, value in self.counters.items()
            if parse_metric_key(key)[0] == name
        )

    def labelled(self, name: str) -> dict:
        """``{labels_tuple_value: count}`` for a single-label counter."""
        out = {}
        for key, value in self.counters.items():
            base, labels = parse_metric_key(key)
            if base == name and labels:
                out[next(iter(labels.values()))] = value
        return out

    def as_dict(self) -> dict:
        """JSON-ready form with deterministically ordered keys."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                key: hist.as_dict()
                for key, hist in sorted(self.histograms.items())
            },
        }


class MetricsRegistry:
    """Thread-safe accumulator for counters, gauges, and histograms."""

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._lock = Lock()

    def count(self, name: str, value: int = 1, **labels) -> None:
        """Increment a monotonic counter."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge to its latest value."""
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Fold one observation into a histogram."""
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = HistogramSummary()
            hist.add(value)

    def snapshot(self) -> MetricsSnapshot:
        """A consistent copy of every metric."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: HistogramSummary(
                        count=h.count, total=h.total, min=h.min, max=h.max,
                        bounds=h.bounds, buckets=list(h.buckets),
                    )
                    for key, h in self._histograms.items()
                },
            )
