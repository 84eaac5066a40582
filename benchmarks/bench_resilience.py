"""Resilience under injected provider faults — accuracy *and* availability.

Not a paper table: this bench exercises the fault-injection + resilience
layer (errors/faults/resilient/degrade) end to end.  A PURPLE pipeline
is wrapped in ``FaultyLLM`` (seeded fault schedule) and ``ResilientLLM``
(retry + breaker on a fake clock — zero real sleeps), then swept over
fault rate × retry policy.  Reported per cell: EM, EX, availability
(share of tasks answered with LLM-derived SQL), completion (share that
returned *any* executable SQL, best-effort included), retries per query,
and breaker openings.

Acceptance targets (ISSUE / DESIGN):
* 20% transient faults with retries ⇒ ≥95% of tasks still answered and
  EM within 2 points of the fault-free run;
* the same seed twice ⇒ bit-identical predictions;
* zero fault rate ⇒ the wrapped pipeline matches the bare one exactly.
"""

import pytest

from benchmarks.common import pct, print_table
from repro import api
from repro.eval import evaluate_approach
from repro.llm import (
    CHATGPT,
    BreakerPolicy,
    FakeClock,
    FaultPolicy,
    FaultyLLM,
    MockLLM,
    ResilientLLM,
    RetryPolicy,
)
from repro.obs import Observer

SUBSET = 100
LLM_SEED = 11
FAULT_SEED = 97

FAULT_RATES = (0.0, 0.1, 0.2, 0.4)

RETRY_POLICIES = (
    ("no-retry", RetryPolicy(max_attempts=1, deadline=None)),
    ("retry-2", RetryPolicy(max_attempts=2, deadline=None)),
    ("retry-4", RetryPolicy(max_attempts=4, deadline=None)),
)


class TickingClock(FakeClock):
    """A fake clock that also creeps forward on reads.

    With a pure ``FakeClock`` an open breaker freezes time (no retries ⇒
    no sleeps ⇒ no recovery); real deployments recover because wall time
    passes between requests.  Each ``monotonic()`` read advances a fixed
    tick, which stays deterministic while letting open → half-open
    happen mid-run.
    """

    def __init__(self, tick: float = 0.01):
        super().__init__()
        self.tick = tick

    def monotonic(self) -> float:
        self.now += self.tick
        return self.now


def resilient_purple(zoo, fault_policy, retry_policy, breaker=None):
    """A PURPLE pipeline on faulty transport, sharing trained substrates.

    The breaker's recovery time is sized to the ticking clock so an open
    breaker can reach half-open within a handful of tasks instead of
    staying open for the rest of the run.
    """
    base = zoo.purple(CHATGPT)
    llm = ResilientLLM(
        FaultyLLM(MockLLM(CHATGPT, seed=LLM_SEED), fault_policy),
        retry=retry_policy,
        breaker=breaker or BreakerPolicy(failure_threshold=5, recovery_time=0.5),
        clock=TickingClock(),
        seed=FAULT_SEED,
    )
    pipeline = api.create("purple", llm=llm)
    pipeline.classifier = base.classifier
    pipeline.pruner = base.pruner
    pipeline.skeleton_module = base.skeleton_module
    pipeline.automaton = base.automaton
    pipeline.prompt_builder = base.prompt_builder
    return pipeline, llm


def run_cell(zoo, corpus, rate, retry_policy):
    policy = FaultPolicy.transient(rate, seed=FAULT_SEED)
    purple, llm = resilient_purple(zoo, policy, retry_policy)
    report = evaluate_approach(
        purple, corpus.dev, limit=SUBSET, observer=Observer()
    )
    purple.executor.close()
    completion = sum(
        1 for o in report.outcomes if o.predicted_sql.upper().startswith("SELECT")
    ) / len(report)
    return {
        "em": report.em,
        "ex": report.ex,
        "availability": report.availability,
        "completion": completion,
        "retries_per_query": report.retries_per_query(),
        "breaker_openings": report.telemetry.breaker_opens,
        "injected_faults": sum(llm.inner.injected.values()),
        "predictions": [o.predicted_sql for o in report.outcomes],
    }


@pytest.fixture(scope="session")
def resilience_cells(zoo, corpus):
    return {
        (rate, name): run_cell(zoo, corpus, rate, policy)
        for rate in FAULT_RATES
        for name, policy in RETRY_POLICIES
    }


def test_resilience_sweep(benchmark, resilience_cells, record):
    cells = benchmark.pedantic(lambda: resilience_cells, rounds=1, iterations=1)
    rows = [
        (
            f"{rate:.0%}", name, pct(c["em"]), pct(c["ex"]),
            pct(c["availability"]), pct(c["completion"]),
            f"{c['retries_per_query']:.2f}", c["breaker_openings"],
        )
        for (rate, name), c in cells.items()
    ]
    print_table(
        "Resilience — fault rate x retry policy",
        ["Faults", "Policy", "EM%", "EX%", "Avail%", "Compl%", "Retr/q", "Breaker"],
        rows,
    )
    record(
        "resilience_sweep",
        {
            f"{rate}|{name}": {k: v for k, v in c.items() if k != "predictions"}
            for (rate, name), c in cells.items()
        },
    )

    # Every cell finishes the whole subset with executable best-effort SQL
    # at worst — the run never crashes.
    assert all(c["completion"] == 1.0 for c in cells.values())

    # Acceptance: 20% transient faults + retries keep the service up and
    # the accuracy loss inside 2 EM points of the fault-free run.
    clean = cells[(0.0, "retry-4")]
    faulted = cells[(0.2, "retry-4")]
    assert faulted["availability"] >= 0.95
    assert abs(faulted["em"] - clean["em"]) <= 0.02

    # Retries are what buys the availability back.
    assert (
        cells[(0.4, "retry-4")]["availability"]
        > cells[(0.4, "no-retry")]["availability"]
    )
    # Fault-free cells never wait on the provider.
    assert cells[(0.0, "retry-4")]["retries_per_query"] == 0.0


def test_resilience_deterministic(resilience_cells, zoo, corpus, record):
    """The same seeds replayed give bit-identical predictions."""
    _, retry4 = RETRY_POLICIES[2]
    rerun = run_cell(zoo, corpus, 0.2, retry4)
    first = resilience_cells[(0.2, "retry-4")]
    assert rerun["predictions"] == first["predictions"]
    assert rerun["retries_per_query"] == first["retries_per_query"]
    assert rerun["injected_faults"] == first["injected_faults"]
    record("resilience_determinism", {"identical": True})


def test_zero_fault_rate_matches_bare_pipeline(resilience_cells, zoo, corpus):
    """Wrapped with all rates at zero == the unwrapped pipeline."""
    bare = zoo.purple(CHATGPT)
    report = evaluate_approach(bare, corpus.dev, limit=SUBSET)
    bare_predictions = [o.predicted_sql for o in report.outcomes]
    for _, name in [(0.0, n) for n, _ in RETRY_POLICIES]:
        assert resilience_cells[(0.0, name)]["predictions"] == bare_predictions


def test_burst_outage_trips_breaker(benchmark, zoo, corpus, record):
    """Correlated outages open the breaker; the run still completes."""

    def run():
        policy = FaultPolicy(
            burst_rate=0.03, burst_length=8, seed=FAULT_SEED
        )
        purple, _ = resilient_purple(
            zoo,
            policy,
            RetryPolicy(max_attempts=2, base_delay=0.05, deadline=None),
            breaker=BreakerPolicy(failure_threshold=3, recovery_time=0.5),
        )
        observer = Observer()
        report = evaluate_approach(
            purple, corpus.dev, limit=SUBSET, observer=observer
        )
        purple.executor.close()
        return report, observer.metrics.snapshot()

    report, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    openings = report.telemetry.breaker_opens
    print_table(
        "Burst outage — breaker behaviour",
        ["Avail%", "EM%", "Openings", "Transitions"],
        [(
            pct(report.availability), pct(report.em),
            openings, metrics.counter_total("llm.breaker.transitions"),
        )],
    )
    record(
        "resilience_burst",
        {
            "availability": report.availability,
            "em": report.em,
            "breaker_openings": openings,
        },
    )
    assert len(report) == SUBSET
    assert openings >= 1
    # The breaker recovered at least once rather than staying open.
    assert metrics.counter(
        "llm.breaker.transitions", **{"from": "open", "to": "half_open"}
    ) >= 1
    # Degradation kept every task executable even mid-outage.
    assert all(
        o.predicted_sql.upper().startswith("SELECT") for o in report.outcomes
    )
