"""Overhead of the continuous-telemetry layer on the serve path.

Two identically-provisioned serving stacks run the same closed-loop
load (pattern from :mod:`benchmarks.bench_serve`): a **baseline** with
the PR 7 wiring (observer only) and a **live** stack with the full
:class:`~repro.obs.live.LiveTelemetry` layer — windowed metrics, cost
ledger, SLO tracking, and tail-based trace capture with lane pruning.

The tentpole gate is the tail: the live stack's closed-loop p99 must
stay within ``P99_TARGET`` (10%) of baseline.  Because both stacks sit
on a ~40ms simulated provider round-trip, per-request bookkeeping is
microseconds against a tens-of-milliseconds tail, and scheduler noise
on shared CI easily exceeds the real delta — so the *hard* assert uses
``P99_HARD_GATE`` while ``results.json`` records the measured ratio
for trend tracking against the 10% objective.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from benchmarks.bench_serve import fire
from benchmarks.common import print_table
from benchmarks.conftest import LLM_SEED
from repro import api
from repro.api.runtime import make_live
from repro.llm import GPT4, MockLLM, SimulatedLatencyLLM
from repro.obs import Observer, percentile
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    NL2SQLService,
    ReproServer,
    Tenant,
    TenantRegistry,
)
from repro.spider import GeneratorConfig, generate_benchmark

CLIENTS = 8
REQUESTS_PER_CLIENT = 25
LLM_BASE_LATENCY = 0.04
LLM_JITTER = 0.01
CONSISTENCY_N = 3
PROMPT_BUDGET = 1536

#: The documented objective: live telemetry costs < 10% of p99.
P99_TARGET = 0.10
#: The CI assert: tolerant of shared-runner scheduling noise on a tail
#: statistic sampled from 200 requests.
P99_HARD_GATE = 0.50


@pytest.fixture(scope="module")
def workload():
    bench = generate_benchmark(GeneratorConfig(
        seed=13, train_variants=1, dev_variants=1,
        train_examples_per_db=12, dev_examples_per_db=12,
    ))
    return bench


def build_stack(bench, with_live):
    llm = SimulatedLatencyLLM(
        MockLLM(GPT4, seed=LLM_SEED),
        base=LLM_BASE_LATENCY, jitter=LLM_JITTER, seed=LLM_SEED,
    )
    translator = api.create(
        "purple", llm=llm, train=bench.train,
        consistency_n=CONSISTENCY_N, budget=PROMPT_BUDGET,
    )
    registry = TenantRegistry()
    registry.add(Tenant(
        tenant_id="bench", data=bench.dev, translator=translator
    ))
    observer = Observer(seed=0, log_level="info")
    live = make_live(observer, prune_lanes=True) if with_live else None
    service = NL2SQLService(
        registry,
        AdmissionController(AdmissionPolicy(
            rate=1000.0, burst=1000, shed_inflight=64, max_inflight=256,
        )),
        observer=observer,
        live=live,
    )
    server = ReproServer(service, port=0).start()
    return server, service


def run_closed_loop(server, examples):
    host, port = server.address
    latencies = [[] for _ in range(CLIENTS)]
    statuses = [[] for _ in range(CLIENTS)]

    def client(worker):
        conn = HTTPConnection(host, port, timeout=30)
        for i in range(worker, len(examples), CLIENTS):
            fire(conn, examples[i])
        for i in range(REQUESTS_PER_CLIENT):
            example = examples[(worker + i * CLIENTS) % len(examples)]
            latency, status = fire(conn, example)
            latencies[worker].append(latency)
            statuses[worker].append(status)
        conn.close()

    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(CLIENTS)
    ]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - wall_started
    flat = [lat for per in latencies for lat in per]
    codes = [code for per in statuses for code in per]
    return {
        "requests": len(flat),
        "qps": round(len(flat) / wall, 1),
        "p50_ms": round(percentile(flat, 50) * 1000, 2),
        "p95_ms": round(percentile(flat, 95) * 1000, 2),
        "p99_ms": round(percentile(flat, 99) * 1000, 2),
        "errors": sum(1 for code in codes if code >= 400),
    }


def measure(bench, with_live):
    server, service = build_stack(bench, with_live)
    try:
        return run_closed_loop(server, bench.dev.examples), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_live_obs_overhead(workload, record):
    baseline, _ = measure(workload, with_live=False)
    live, live_service = measure(workload, with_live=True)

    p99_ratio = live["p99_ms"] / baseline["p99_ms"] - 1.0
    p50_ratio = live["p50_ms"] / baseline["p50_ms"] - 1.0
    traces = live_service.live.traces.stats()
    payload = {
        "llm_base_latency_ms": LLM_BASE_LATENCY * 1000,
        "baseline": baseline,
        "live": live,
        "p50_overhead": round(p50_ratio, 4),
        "p99_overhead": round(p99_ratio, 4),
        "p99_target": P99_TARGET,
        "p99_hard_gate": P99_HARD_GATE,
        "traces_seen": traces["seen"],
        "traces_stored": traces["stored"],
    }
    record("live_obs", payload)
    print_table(
        "Live telemetry overhead (closed-loop, 8 clients)",
        ["stack", "qps", "p50 ms", "p95 ms", "p99 ms", "errors"],
        [
            ["baseline", baseline["qps"], baseline["p50_ms"],
             baseline["p95_ms"], baseline["p99_ms"], baseline["errors"]],
            ["live", live["qps"], live["p50_ms"], live["p95_ms"],
             live["p99_ms"], live["errors"]],
        ],
    )
    assert baseline["errors"] == 0 and live["errors"] == 0
    assert traces["seen"] == live["requests"] + len(workload.dev.examples), (
        "every served request (including warm-up) must reach the store"
    )
    assert p99_ratio < P99_HARD_GATE, (
        f"live telemetry p99 overhead {p99_ratio:.1%} exceeds the "
        f"{P99_HARD_GATE:.0%} gate (objective: {P99_TARGET:.0%})"
    )
