"""Overhead of the observability layer — not a paper table.

A 200-task zero-shot workload (30 ± 10 ms simulated provider latency,
4 workers) runs once bare and once fully traced (spans, metrics, events
collected); measured: wall-clock delta, spans per task, trace volume.

Target (ISSUE): tracing adds <5% wall-clock on this workload.  The
wall-clock on shared CI hardware is noisy at that resolution, so the
hard assertion allows 15%; the measured figure lands in results.json
for the record.  Outcomes must be exactly identical either way — the
observability layer's core contract.
"""

import pytest

from benchmarks.common import pct, print_table
from benchmarks.conftest import LLM_SEED
from repro import api
from repro.eval import evaluate_approach
from repro.llm import CHATGPT, MockLLM, SimulatedLatencyLLM
from repro.obs import Observer

SUBSET = 200
WORKERS = 4
BASE_LATENCY = 0.03
JITTER = 0.01
#: Documented target is 5%; CI wall clocks are too noisy to gate on it.
TARGET_OVERHEAD = 0.05
MAX_OVERHEAD = 0.15


def make_approach():
    llm = SimulatedLatencyLLM(
        MockLLM(CHATGPT, seed=LLM_SEED),
        base=BASE_LATENCY,
        jitter=JITTER,
        seed=LLM_SEED,
    )
    return api.create("zero", llm=llm)


def run(corpus, observer=None):
    report = evaluate_approach(
        make_approach(), corpus.dev, limit=SUBSET, workers=WORKERS,
        observer=observer,
    )
    return report


@pytest.fixture(scope="module")
def overhead_runs(corpus):
    # Interleave bare/traced to spread thermal and cache drift evenly.
    bare_walls, traced_walls = [], []
    bare = traced = None
    observer = None
    for _ in range(2):
        bare = run(corpus)
        bare_walls.append(bare.timing.wall_time)
        observer = Observer()
        traced = run(corpus, observer=observer)
        traced_walls.append(traced.timing.wall_time)
    return {
        "bare": bare,
        "traced": traced,
        "observer": observer,
        "bare_wall": min(bare_walls),
        "traced_wall": min(traced_walls),
    }


def test_tracing_overhead(benchmark, overhead_runs, record):
    runs = benchmark.pedantic(lambda: overhead_runs, rounds=1, iterations=1)
    bare_wall, traced_wall = runs["bare_wall"], runs["traced_wall"]
    overhead = traced_wall / bare_wall - 1.0
    observer = runs["observer"]
    spans = len(observer.tracer)
    print_table(
        f"Observability overhead — {SUBSET} tasks, {WORKERS} workers "
        f"(target <{TARGET_OVERHEAD:.0%}, bound <{MAX_OVERHEAD:.0%})",
        ["Run", "Wall s", "Spans", "Overhead"],
        [
            ("bare", f"{bare_wall:.3f}", 0, "—"),
            ("traced", f"{traced_wall:.3f}", spans, pct(max(overhead, 0.0))),
        ],
    )
    record(
        "obs_overhead",
        {
            "tasks": SUBSET,
            "workers": WORKERS,
            "bare_wall_s": round(bare_wall, 4),
            "traced_wall_s": round(traced_wall, 4),
            "overhead": round(overhead, 4),
            "target_overhead": TARGET_OVERHEAD,
            "spans": spans,
            "spans_per_task": round(spans / SUBSET, 2),
            "em": runs["traced"].em,
            "ex": runs["traced"].ex,
        },
    )
    assert overhead < MAX_OVERHEAD
    # The trace actually covered the run: a root span per task plus
    # per-stage children.
    names = [s.name for s in observer.tracer.spans()]
    assert names.count("task") == SUBSET
    assert sum(1 for n in names if n.startswith("stage:")) >= SUBSET


def test_outcomes_identical_with_tracing(overhead_runs):
    """Telemetry never perturbs results — byte-identical outcomes."""
    assert overhead_runs["traced"].outcomes == overhead_runs["bare"].outcomes
    assert overhead_runs["bare"].telemetry is None
    assert overhead_runs["traced"].telemetry is not None
    assert overhead_runs["traced"].telemetry.tasks == SUBSET
