"""Serving-layer load generator — qps and tail latency, not a paper table.

An in-process :class:`~repro.serve.http.ReproServer` hosts one PURPLE
tenant over :class:`~repro.llm.latency.SimulatedLatencyLLM` (so each
request pays a deterministic network-shaped round-trip, and the sleep
releases the GIL exactly like real provider I/O).  Two load shapes:

* **closed-loop** — 8 clients on persistent HTTP/1.1 connections, each
  issuing its next request the moment the previous answer lands.  This
  is the gated configuration: sustained qps ≥ 50, p99 < 2×p50, zero
  rejected requests (shed-to-ladder is allowed, drops are not).
* **open-loop** — a paced arrival process at a fixed target rate,
  measuring latency under offered (not feedback-limited) load.

Both shapes land in ``benchmarks/results.json`` under ``"serve"``.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from benchmarks.common import print_table
from benchmarks.conftest import LLM_SEED
from repro import api
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
REQUESTS_PER_CLIENT = 40
#: Simulated provider round-trip: 40ms ± 10ms, deterministic per prompt.
LLM_BASE_LATENCY = 0.04
LLM_JITTER = 0.01
#: Serving-tuned pipeline: smaller prompt budget and voting width than
#: the accuracy benches — the latency/accuracy trade a service makes.
CONSISTENCY_N = 3
PROMPT_BUDGET = 1536
#: Open-loop offered load (requests/second) and duration.
OPEN_LOOP_RATE = 60.0
OPEN_LOOP_REQUESTS = 120

MIN_QPS = 50.0
MAX_P99_OVER_P50 = 2.0


@pytest.fixture(scope="module")
def serve_stack():
    """Server + example stream for the load generators."""
    bench = generate_benchmark(GeneratorConfig(
        seed=13, train_variants=1, dev_variants=1,
        train_examples_per_db=12, dev_examples_per_db=12,
    ))
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
    service = NL2SQLService(
        registry,
        AdmissionController(AdmissionPolicy(
            rate=1000.0, burst=1000, shed_inflight=64, max_inflight=256,
        )),
        observer=Observer(seed=0, log_level="info"),
    )
    server = ReproServer(service, port=0).start()
    examples = bench.dev.examples
    yield server, service, examples
    server.shutdown()
    server.server_close()
    service.close()


def fire(conn, example):
    """One translate round-trip; returns (latency_s, status)."""
    body = json.dumps({
        "question": example.question, "db_id": example.db_id,
        "tenant": "bench",
    })
    started = time.perf_counter()
    conn.request(
        "POST", "/v1/translate", body,
        {"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    response.read()
    return time.perf_counter() - started, response.status


def run_closed_loop(server, examples):
    host, port = server.address
    latencies = [[] for _ in range(CLIENTS)]
    statuses = [[] for _ in range(CLIENTS)]

    def client(worker):
        conn = HTTPConnection(host, port, timeout=30)
        # Warm-up: touch every example this client will replay so cold
        # prompt/executor caches don't pollute the measured tail.
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
        "clients": CLIENTS,
        "requests": len(flat),
        "wall_s": round(wall, 3),
        "qps": round(len(flat) / wall, 1),
        "p50_ms": round(percentile(flat, 50) * 1000, 2),
        "p95_ms": round(percentile(flat, 95) * 1000, 2),
        "p99_ms": round(percentile(flat, 99) * 1000, 2),
        "rejected": sum(1 for code in codes if code == 429),
        "errors": sum(1 for code in codes if code >= 400 and code != 429),
    }


def run_open_loop(server, examples):
    """Paced arrivals at OPEN_LOOP_RATE; each request on its own thread."""
    host, port = server.address
    interval = 1.0 / OPEN_LOOP_RATE
    latencies = []
    codes = []
    lock = threading.Lock()

    def one_shot(example):
        conn = HTTPConnection(host, port, timeout=30)
        latency, status = fire(conn, example)
        conn.close()
        with lock:
            latencies.append(latency)
            codes.append(status)

    threads = []
    wall_started = time.perf_counter()
    for i in range(OPEN_LOOP_REQUESTS):
        target = wall_started + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(
            target=one_shot, args=(examples[i % len(examples)],)
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - wall_started
    return {
        "offered_qps": OPEN_LOOP_RATE,
        "requests": len(latencies),
        "achieved_qps": round(len(latencies) / wall, 1),
        "p50_ms": round(percentile(latencies, 50) * 1000, 2),
        "p95_ms": round(percentile(latencies, 95) * 1000, 2),
        "p99_ms": round(percentile(latencies, 99) * 1000, 2),
        "rejected": sum(1 for code in codes if code == 429),
    }


def test_serve_throughput(serve_stack, record):
    server, service, examples = serve_stack
    closed = run_closed_loop(server, examples)
    open_loop = run_open_loop(server, examples)
    shed = service.observer.metrics.snapshot().counter_total("serve.shed")
    payload = {
        "llm_base_latency_ms": LLM_BASE_LATENCY * 1000,
        "closed_loop": closed,
        "open_loop": open_loop,
        "shed_to_ladder": shed,
    }
    record("serve", payload)
    print_table(
        "Serving throughput (closed-loop, 8 clients, simulated provider)",
        ["shape", "qps", "p50 ms", "p95 ms", "p99 ms", "rejected"],
        [
            ["closed", closed["qps"], closed["p50_ms"], closed["p95_ms"],
             closed["p99_ms"], closed["rejected"]],
            ["open", open_loop["achieved_qps"], open_loop["p50_ms"],
             open_loop["p95_ms"], open_loop["p99_ms"],
             open_loop["rejected"]],
        ],
    )
    assert closed["errors"] == 0
    assert closed["rejected"] == 0, "load shedding must demote, not drop"
    assert closed["qps"] >= MIN_QPS, (
        f"sustained {closed['qps']} qps < {MIN_QPS}"
    )
    assert closed["p99_ms"] < MAX_P99_OVER_P50 * closed["p50_ms"], (
        f"p99 {closed['p99_ms']}ms >= {MAX_P99_OVER_P50}x "
        f"p50 {closed['p50_ms']}ms"
    )
