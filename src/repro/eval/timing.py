"""Wall-clock profile of an evaluation run.

:class:`RunTiming` answers *what latency distribution do tasks see*
(p50/p95, throughput) for every run.  *Where the time goes* (prune /
skeleton / select / llm / adapt / execute) is the span tree's to say:
pipeline stages open ``stage:<name>`` spans, and an observed run's
``stages`` are a fold over them (:func:`repro.obs.report.stage_totals`),
so a run without an observer carries no per-stage breakdown.

Timing is intentionally kept *outside* :class:`ExampleOutcome`: wall
times differ run to run, while outcomes are the byte-identical part of
the report that determinism tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import percentile


@dataclass
class RunTiming:
    """Wall-clock profile of one evaluation run.

    ``wall_time`` is the end-to-end dispatch time; ``latencies`` holds
    one wall latency (seconds) per outcome, in task order; ``stages``
    maps stage name to total seconds, canonical stages first, and is
    empty unless the run was observed.
    """

    wall_time: float = 0.0
    workers: int = 1
    latencies: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)

    def throughput(self) -> float:
        """Tasks completed per second of wall time."""
        if self.wall_time <= 0.0:
            return 0.0
        return len(self.latencies) / self.wall_time

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) of task latency
        (:func:`repro.obs.percentile`)."""
        return percentile(self.latencies, q)
