"""The repository benchmark: PURPLE in batch and behind ``repro serve``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload batch-paper --seed 1 --seconds 16 \
        --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the
same workload with spans installed and prints the per-layer metrics.
The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--corpus tiny`` swaps the full-scale corpus for a tiny one (the smoke
test).  Workloads, metrics and their layers are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time

import common
import loadgen
import tracing

WORKLOADS = ("batch-paper", "serve-unique")

#: Wall budget of one run; children are stopped when it runs out.
DEADLINE_S = 170.0

#: The serve rate ramp: coarse steps multiply the fixed rate by
#: ``RAMP_GROWTH`` (at most ``RAMP_STEPS`` times) until one misses the
#: latency limit or lets the backlog grow; ``RAMP_SEARCHES`` bisections
#: of ``RAMP_REFINE`` steps each then narrow that bracket.  Every step
#: lasts ``RAMP_STEP_SHARE * --seconds``.
RAMP_GROWTH = 1.5
RAMP_STEPS = 6
RAMP_SEARCHES = 2
RAMP_REFINE = 2
RAMP_STEP_SHARE = 0.075

#: p95 within the limit <=> at most this share of requests is later.
LATE_SHARE = 0.05

READY_RE = re.compile(r"serving \d+ tenant\(s\) on http://([^:\s]+):(\d+)")


class BenchError(RuntimeError):
    """The run could not be measured (no result is printed)."""


class Child:
    """A benchmark child process whose stdout is read on a thread."""

    def __init__(self, cmd: list, log_path):
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log,
            env=common.child_env(), cwd=common.ROOT, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def wait_line(self, pattern, deadline: float):
        """Block until a stdout line matches; returns (match, when)."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"timed out waiting for {pattern.pattern!r}")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(
                    f"child exited with {self.proc.wait()} before printing "
                    f"{pattern.pattern!r}"
                )
            match = pattern.search(line)
            if match:
                return match, time.perf_counter()

    def stop(self, wait_s: float = 15.0) -> int:
        """SIGINT, a bounded wait, then SIGKILL; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=wait_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


# -- batch-paper ---------------------------------------------------------------


def run_batch(args, corpus, deadline: float) -> dict:
    out = common.build_dir() / f"batch-{os.getpid()}.json"
    child = Child(
        [sys.executable, "-u", str(common.BENCH_DIR / "batch_worker.py"),
         "--corpus", str(corpus), "--seed", str(args.seed),
         "--trace", str(args.trace), "--out", str(out)],
        common.build_dir() / "batch-worker.log",
    )
    try:
        _, ready = child.wait_line(re.compile(r"^ready$"), deadline)
        code = child.proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("batch worker overran the run deadline")
    finally:
        child.stop()
    if code != 0:
        raise BenchError(f"batch worker exited with {code}")
    data = json.loads(out.read_text())
    out.unlink()
    setup_s = ready - child.started
    tasks = data["tasks"]
    passes = data["passes"]
    first = passes[0]
    problems = []
    for number, run in enumerate(passes, 1):
        if run["translated"] != tasks:
            problems.append(f"pass {number}: {run['translated']} "
                            f"translations for {tasks} tasks")
        if run["empty"]:
            problems.append(f"pass {number}: {run['empty']} empty predictions")
        if run["ok"] != tasks:
            problems.append(f"pass {number}: {tasks - run['ok']} tasks "
                            "unanswered or unscored")
        if run["accuracy"] != first["accuracy"]:
            problems.append(f"pass {number}: accuracy record differs from "
                            "pass 1")
    problems += _reference_problems(f"batch-paper-{args.corpus}",
                                    first["accuracy"])
    # Each task's cycle (wall and CPU) is its fastest pass.  The passes
    # do the same work (their accuracy records must match), so slower
    # passes measure interference from the host, not the program.
    cycles = [
        [min(run["cycles"][ex_id][k] for run in passes)
         for ex_id in sorted(first["cycles"])]
        for k in (0, 1)
    ]
    latencies, cpu_s = cycles
    rate = tasks / sum(latencies)
    print(
        f"perfbench batch-paper: setup {setup_s:.2f} s; {tasks} tasks x "
        f"{len(passes)} passes in "
        + ", ".join(f"{run['wall_s']:.2f}" for run in passes)
        + f" s; per-task fastest cycle: p50 "
        f"{common.median(latencies) * 1000:.1f} ms, p95 "
        f"{common.percentile(latencies, 95) * 1000:.1f} ms (n={tasks}), "
        f"{rate:.2f} tasks/s; em {first['accuracy']['em']:.4f} "
        f"ex {first['accuracy']['ex']:.4f}"
    )
    attempted = tasks * len(passes)
    if args.trace:
        layers = tracing.fold(
            data["spans"], attempted, sum(run["wall_s"] for run in passes),
            sum(run["thread_cpu_s"] for run in passes),
            span_cost=data["span_cost_s"],
        )
        problems += _count_problems(
            data["spans"], attempted, common.BATCH_CONSISTENCY, serve=False)
        metrics = _layer_metrics(layers, setup_s)
        metrics.update(_serve_only_zero())
    else:
        acc = first["accuracy"]
        metrics = {
            "setup_s": common.metric(setup_s, "s"),
            "tasks_per_s": common.metric(rate, "1/s"),
            "latency_p50_ms": common.metric(
                common.median(latencies) * 1000.0, "ms"),
            "latency_p95_ms": common.metric(
                common.percentile(latencies, 95) * 1000.0, "ms"),
            # One closed-loop caller: the highest rate it sustains is its
            # completion rate (its p95 is far inside the limit).
            "max_rate_rps": common.metric(rate, "1/s"),
            "cpu_ms_per_task": common.metric(
                sum(cpu_s) * 1000.0 / tasks, "ms"),
            "peak_rss_mb": common.metric(data["peak_rss_mb"], "MB"),
            "em": common.metric(acc["em"], "ratio"),
            "ex": common.metric(acc["ex"], "ratio"),
            "tokens_per_task": common.metric(
                acc["tokens_per_task"], "tokens"),
            "ok_share": common.metric(first["ok"] / tasks, "ratio"),
            "undegraded_share": common.metric(
                first["undegraded"] / tasks, "ratio"),
        }
    return {
        "correct": not problems, "attempted": attempted,
        "failed": sum(tasks - run["ok"] for run in passes),
        "metrics": metrics, "problems": problems,
    }


# -- serve-unique --------------------------------------------------------------


def _translate(example: dict, bench_id: str, due: float) -> loadgen.Request:
    return loadgen.Request(
        due=due, path="/v1/translate",
        body={"schema_version": 1, "question": example["question"],
              "db_id": example["db_id"]},
        bench_id=bench_id, meta=example,
    )


def _missed(outcome: loadgen.Outcome) -> bool:
    """Failed, refused (429), dropped, or served demoted (shed)."""
    return not outcome.ok or bool(outcome.payload.get("shed"))


def _p95_ms(outcomes: list) -> float:
    latencies = [
        float("inf") if _missed(o) else o.latency_s * 1000.0
        for o in outcomes
    ]
    return common.percentile(latencies, 95)


def _late_share(outcomes: list, limit_ms: float) -> float:
    """Share of requests missed or answered later than ``limit_ms``.

    p95 is within the limit exactly when this is at most ``LATE_SHARE``;
    unlike p95 it moves smoothly across the cliff, so it interpolates.
    """
    late = sum(
        1 for o in outcomes
        if _missed(o) or o.latency_s * 1000.0 > limit_ms
    )
    return late / len(outcomes)


def _ramp(gen, pool: list, rate0: float, late0: float, limit_ms: float,
          step_s: float):
    """Find the highest rate whose p95 stays within ``limit_ms``.

    Coarse steps multiply the offered rate by ``RAMP_GROWTH`` until one
    fails; ``RAMP_SEARCHES`` independent bisections of that bracket, of
    ``RAMP_REFINE`` steps each, then interpolate on the late share and
    are averaged, so the answer neither snaps to the step grid nor rests
    on one short step.  Returns ``(max_rate, steps)``.
    """
    steps: list = []
    if late0 > LATE_SHARE:
        return rate0 * LATE_SHARE / late0, steps
    cursor = [0]

    def probe(rate: float) -> dict:
        count = max(2, round(rate * step_s))
        schedule = []
        for i in range(count):
            schedule.append(_translate(
                pool[cursor[0] % len(pool)], f"r{len(steps)}-{i:04d}",
                i / rate))
            cursor[0] += 1
        # Requests a connection picks up later than this are already
        # past the limit: drop them rather than drain a collapsed step.
        outcomes = gen.run(schedule, stop_after_s=step_s + limit_ms / 1000.0)
        late = _late_share(outcomes, limit_ms)
        tail = outcomes[-max(1, count // 4):]
        tail_queue_ms = 1000.0 * sum(o.queue_s for o in tail) / len(tail)
        step = {"rate": rate, "late": late, "outcomes": outcomes,
                "p95_ms": _p95_ms(outcomes),
                "passed": late <= LATE_SHARE and tail_queue_ms <= limit_ms / 2}
        steps.append(step)
        return step

    lo = {"rate": rate0, "late": late0}
    for k in range(1, RAMP_STEPS + 1):
        step = probe(rate0 * RAMP_GROWTH ** k)
        if not step["passed"]:
            hi = step
            break
        lo = step
    else:
        return lo["rate"], steps
    estimates = []
    for _ in range(RAMP_SEARCHES):
        below, above = lo, hi
        for _ in range(RAMP_REFINE):
            step = probe(math.sqrt(below["rate"] * above["rate"]))
            if step["passed"]:
                below = step
            else:
                above = step
        frac = 0.5
        if above["late"] > LATE_SHARE:
            frac = ((LATE_SHARE - below["late"])
                    / (above["late"] - below["late"]))
        estimates.append(
            below["rate"] + (above["rate"] - below["rate"]) * frac)
    return sum(estimates) / len(estimates), steps


def run_serve(args, corpus, deadline: float) -> dict:
    examples = json.loads((corpus / "dev.json").read_text())["examples"]
    tasks, pool = common.task_split(examples, db_of=lambda e: e["db_id"])
    rng = random.Random(args.seed)
    rng.shuffle(tasks)
    rng.shuffle(pool)
    serve_args = [
        "serve", "--train", str(corpus / "train.json"),
        "--dev", str(corpus / "dev.json"), "--port", "0",
    ]
    spans_out = common.build_dir() / f"spans-{os.getpid()}.json"
    if args.trace:
        cmd = [sys.executable, "-u", str(common.BENCH_DIR / "serve_traced.py"),
               str(spans_out), *serve_args]
    else:
        cmd = [sys.executable, "-u", "-m", "repro", *serve_args]
    connections = max(1, min(2, len(os.sched_getaffinity(0))))
    limit_ms = common.LATENCY_LIMIT_MS
    child = Child(cmd, common.build_dir() / "serve.log")
    try:
        match, ready = child.wait_line(READY_RE, deadline)
        setup_s = ready - child.started
        pid = child.proc.pid
        with loadgen.LoadGenerator(match.group(1), int(match.group(2)),
                                   connections) as gen:
            # One unmeasured request per database first: lazy per-database
            # set-up is paid once per server, not per measured request.
            first_per_db = {}
            for example in pool:
                first_per_db.setdefault(example["db_id"], example)
            warm = gen.run([
                _translate(e, f"w{i:03d}", 0.0)
                for i, e in enumerate(first_per_db.values())
            ])
            interval = args.seconds / len(tasks)
            offset = rng.random() * interval
            fixed = [
                _translate(e, f"t{i:05d}", offset + i * interval)
                for i, e in enumerate(tasks)
            ]
            cpu0 = common.proc_cpu_s(pid)
            fixed_out = gen.run(fixed)
            cpu_s = common.proc_cpu_s(pid) - cpu0
            rate0 = len(tasks) / args.seconds
            max_rate, steps = _ramp(
                gen, pool, rate0, _late_share(fixed_out, limit_ms), limit_ms,
                args.seconds * RAMP_STEP_SHARE)
        peak_rss_mb = common.proc_peak_rss_mb(pid)
    finally:
        code = child.stop()
    if code != 0:
        raise BenchError(f"server exited with {code}")

    problems = []
    n = len(fixed_out)
    ok = [o for o in fixed_out if o.ok]
    errors = [o for o in warm + fixed_out if not o.ok]
    errors += [o for step in steps for o in step["outcomes"]
               if not o.ok and o.error != "dropped"]
    if errors:
        problems.append(
            f"{len(errors)} failed requests, first: "
            f"{errors[0].status} {errors[0].error or errors[0].payload}")
    accuracy = _score_served(corpus, fixed_out)
    if accuracy["empty"]:
        problems.append(f"{accuracy['empty']} empty predictions")
    del accuracy["empty"]
    problems += _reference_problems(f"serve-unique-{args.corpus}", accuracy)
    undegraded = sum(
        1 for o in ok
        if not o.payload.get("shed") and not o.payload.get("best_effort")
        and o.payload.get("degradation_level") == 0
    )
    latencies = [o.latency_s * 1000.0 for o in fixed_out]
    done = max(o.done for o in fixed_out)
    tasks_per_s = len(ok) / (done - min(o.due for o in fixed_out))
    ramp_text = ", ".join(
        f"{s['rate']:.1f}/s p95 {s['p95_ms']:.0f} ms "
        f"{'ok' if s['passed'] else 'FAIL'}" for s in steps)
    print(
        f"perfbench serve-unique: setup {setup_s:.2f} s; {n} translates at "
        f"{rate0:.2f}/s over {connections} keep-alive connections; p50 "
        f"{common.median(latencies):.1f} ms (n={n}), p95 "
        f"{common.percentile(latencies, 95):.1f} ms (n={n}); ramp: "
        f"{ramp_text}; max rate {max_rate:.2f}/s at p95 <= {limit_ms:.0f} ms"
    )
    attempted = len(warm) + n + sum(
        1 for s in steps for o in s["outcomes"] if o.error != "dropped")
    result = {
        "correct": False, "attempted": attempted, "failed": len(errors),
        "problems": problems,
    }
    if args.trace:
        data = json.loads(spans_out.read_text())
        spans_out.unlink()
        metrics = _serve_layers(
            data, fixed_out,
            [o for step in steps for o in step["outcomes"]], setup_s)
        problems += _count_problems(
            [s for s in data["spans"]
             if s["rid"] is None or s["rid"].startswith("t")],
            n, common.SERVE_CONSISTENCY, serve=True)
    else:
        metrics = {
            "setup_s": common.metric(setup_s, "s"),
            "tasks_per_s": common.metric(tasks_per_s, "1/s"),
            "latency_p50_ms": common.metric(common.median(latencies), "ms"),
            "latency_p95_ms": common.metric(
                common.percentile(latencies, 95), "ms"),
            "max_rate_rps": common.metric(max_rate, "1/s"),
            "cpu_ms_per_task": common.metric(cpu_s * 1000.0 / n, "ms"),
            "peak_rss_mb": common.metric(peak_rss_mb, "MB"),
            "em": common.metric(accuracy["em"], "ratio"),
            "ex": common.metric(accuracy["ex"], "ratio"),
            "tokens_per_task": common.metric(
                accuracy["tokens_per_task"], "tokens"),
            "ok_share": common.metric(len(ok) / n, "ratio"),
            "undegraded_share": common.metric(undegraded / n, "ratio"),
        }
    result["metrics"] = metrics
    result["correct"] = not problems
    return result


def _score_served(corpus, outcomes: list) -> dict:
    """EM/EX of the served SQL against gold, scored in this process."""
    sys.path.insert(0, str(common.SRC))
    from repro.eval.exact_match import exact_set_match
    from repro.eval.execution import GoldExecutionError, execution_match
    from repro.schema import SQLiteExecutor
    from repro.spider import Dataset

    dev = Dataset.load(corpus / "dev.json")
    executor = SQLiteExecutor()
    em = ex = tokens = empty = 0
    predictions = []
    try:
        for db_id in dev.db_ids():
            executor.register(dev.database(db_id))
        for outcome in outcomes:
            gold = outcome.request.meta
            sql = outcome.payload.get("sql", "") if outcome.ok else ""
            predictions.append((gold["ex_id"], sql))
            empty += not sql.strip()
            em += exact_set_match(gold["sql"], sql)
            try:
                ex += execution_match(executor, gold["db_id"], gold["sql"], sql)
            except GoldExecutionError:
                pass
            if outcome.ok:
                tokens += (outcome.payload["prompt_tokens"]
                           + outcome.payload["output_tokens"])
    finally:
        executor.close()
    n = len(outcomes)
    return {
        "em": em / n, "ex": ex / n, "tokens_per_task": tokens / n,
        "predictions_sha256": hashlib.sha256(
            json.dumps(sorted(predictions)).encode()).hexdigest(),
        "empty": empty,
    }


def _transport_s(outcomes: list, handler: dict) -> float:
    """Client wait minus server handler time, summed over ``outcomes``."""
    return sum(o.service_s - handler[o.request.bench_id] for o in outcomes)


def _serve_layers(data: dict, fixed_out: list, ramp_out: list,
                  setup_s: float) -> dict:
    """Per-layer metrics of a traced serve run (the fixed phase)."""
    spans = data["spans"]
    by_id = {o.request.bench_id: o for o in fixed_out}
    measured = [s for s in spans
                if s["rid"] is None or s["rid"] in by_id]
    handler = {s["rid"]: s["wall"] for s in spans
               if s["name"] == "serve.http"}
    client_s = sum(o.service_s for o in fixed_out)
    transport_s = _transport_s(fixed_out, handler)
    handler_cpu = sum(s["cpu"] for s in spans
                      if s["name"] == "serve.http" and s["rid"] in by_id)
    n = len(fixed_out)
    layers = tracing.fold(
        measured, n, client_s, handler_cpu, transport_total_s=transport_s,
        requests=n, span_cost=data["span_cost_s"],
    )
    metrics = _layer_metrics(layers, setup_s)
    # Admission matters near max_rate_rps: count every verdict, ramp too.
    verdicts = [s["verdict"] for s in spans if s["name"] == "admission"]
    for verdict in ("shed", "reject"):
        metrics[f"admission.{verdict}_share"] = common.metric(
            verdicts.count(verdict) / len(verdicts), "ratio")
    # Ramp steps reuse each connection back to back, which the fixed
    # phase's spacing never does; transport stalls that only show then
    # land here.
    ramp_ok = [o for o in ramp_out if o.ok]
    metrics["transport.ramp_ms_per_request"] = common.metric(
        _transport_s(ramp_ok, handler) * 1000.0 / max(1, len(ramp_ok)), "ms")
    metrics["loadgen.lag_p95_ms"] = common.metric(
        common.percentile([o.lag_s for o in fixed_out], 95) * 1000.0, "ms")
    metrics["loadgen.queue_ms_p95"] = common.metric(
        common.percentile([o.queue_s for o in fixed_out], 95) * 1000.0, "ms")
    return metrics


def _layer_metrics(layers: dict, setup_s: float) -> dict:
    metrics = {name: common.metric(value, unit)
               for name, (value, unit) in layers.items()}
    attributed = sum(layers[f"{layer}_s"][0]
                     for layer in tracing.SETUP_LAYERS)
    metrics["setup.other_s"] = common.metric(setup_s - attributed, "s")
    return metrics


def _serve_only_zero() -> dict:
    """Serve-only layer metrics of a run without a server (all zero)."""
    return {
        "admission.shed_share": common.metric(0.0, "ratio"),
        "admission.reject_share": common.metric(0.0, "ratio"),
        "transport.ramp_ms_per_request": common.metric(0.0, "ms"),
        "loadgen.lag_p95_ms": common.metric(0.0, "ms"),
        "loadgen.queue_ms_p95": common.metric(0.0, "ms"),
    }


def _count_problems(spans: list, tasks: int, n: int, serve: bool) -> list:
    """Per-task call counts every correct traced run must show."""
    counts: dict = {}
    for span in spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    expected = {
        "setup.corpus": 2, "setup.classifier": 1, "setup.skeleton_train": 1,
        "setup.index": 1, "setup.prompt_index": 1,
        "prune": tasks, "skeleton": tasks, "select": tasks,
        "prompt": 2 * tasks, "llm": tasks, "adapt": n * tasks,
        "vote": tasks, "pipeline": tasks,
    }
    if serve:
        expected.update({
            "serve.http": tasks, "serve.service": tasks,
            "admission": tasks, "live": 2 * tasks,
        })
    else:
        expected["score"] = 2 * tasks
    return [
        f"traced {name}: {counts.get(name, 0)} calls, expected {want}"
        for name, want in expected.items() if counts.get(name, 0) != want
    ]


def _reference_problems(name: str, accuracy: dict) -> list:
    return [
        f"{field} differs from this checkout's first run"
        for field in common.check_reference(name, accuracy)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the serve fixed-rate phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", choices=sorted(common.CORPUS_ARGS),
                        default="full")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every child is stopped and waited.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that, so the server would never see the SIGINT that stops
    # it.  A handled signal is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    deadline = time.perf_counter() + DEADLINE_S
    common.check_checkout()
    corpus = common.ensure_corpus(args.corpus)
    print(
        "perfbench: BLAS pools pinned to "
        + " ".join(f"{k}={v}" for k, v in sorted(common.BLAS_ENV.items()))
    )
    runner = run_batch if args.workload == "batch-paper" else run_serve
    try:
        result = runner(args, corpus, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result.pop("problems"):
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
