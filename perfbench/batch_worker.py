"""``batch-paper`` worker: PURPLE in process, one closed-loop caller.

Started by ``run.py`` as its own process so set-up is timed from spawn.
It loads the saved corpus, fits PURPLE (GPT4 profile, n=30, 3072-token
budget), prints ``ready``, then runs ``evaluate_approach(workers=1)``
over the fixed task list ``BATCH_PASSES`` times, each pass in its own
seed-drawn order, and writes its measurements as JSON to ``--out``:
per pass the wall and CPU time, every task's cycle time and CPU, and
the exact accuracy record.  With ``--trace 1`` it records spans first
(:mod:`tracing`) and adds them to the output.

Usage: python -u perfbench/batch_worker.py --corpus DIR --seed N
       --trace 0|1 --out FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import time

import common
import tracing


class _CycleTimer:
    """The approach seen by the harness, stamping when each task starts.

    In a closed loop with one caller, task *i* ends when task *i+1*
    starts, so the gaps between stamps are per-task cycle times (wall
    and process CPU) that include scoring, timed on the benchmark's own
    clock.
    """

    def __init__(self, approach):
        self._approach = approach
        self.name = approach.name
        self.starts: list = []
        self.questions: list = []

    def translate(self, task):
        self.starts.append((time.perf_counter(), time.process_time()))
        self.questions.append(task.question)
        return self._approach.translate(task)

    def __getattr__(self, attr):
        return getattr(self._approach, attr)


def _run_pass(purple, dev, order: list) -> dict:
    """One ``evaluate_approach`` pass over ``order``; its measurements."""
    from repro.eval import evaluate_approach
    from repro.spider import Dataset

    dataset = Dataset(name=dev.name, examples=order, databases=dev.databases)
    timer = _CycleTimer(purple)
    cpu0 = time.process_time()
    thread0 = time.thread_time()
    t0 = time.perf_counter()
    report = evaluate_approach(timer, dataset, workers=1)
    wall = time.perf_counter() - t0
    thread_cpu = time.thread_time() - thread0
    cpu = time.process_time() - cpu0

    if timer.questions != [example.question for example in order]:
        raise SystemExit("translate calls did not follow the task order")
    ends = timer.starts[1:] + [(t0 + wall, cpu0 + cpu)]
    cycles = {
        example.ex_id: (end[0] - start[0], end[1] - start[1])
        for example, start, end in zip(order, timer.starts, ends)
    }
    outcomes = report.outcomes
    predictions = sorted((o.ex_id, o.predicted_sql) for o in outcomes)
    return {
        "translated": len(timer.starts),
        "wall_s": wall,
        "thread_cpu_s": thread_cpu,
        "cycles": cycles,
        "ok": sum(1 for o in outcomes if o.answered and o.eval_error is None),
        "undegraded": sum(
            1 for o in outcomes if o.answered and o.degradation_level == 0
        ),
        "empty": sum(1 for o in outcomes if not o.predicted_sql.strip()),
        "accuracy": {
            "em": report.em,
            "ex": report.ex,
            "tokens_per_task": sum(
                o.usage.prompt_tokens + o.usage.output_tokens
                for o in outcomes
            ) / len(outcomes),
            "predictions_sha256": hashlib.sha256(
                json.dumps(predictions).encode()
            ).hexdigest(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.instrument(recorder)

    from repro import api
    from repro.llm import GPT4, MockLLM
    from repro.spider import Dataset

    train = Dataset.load(f"{args.corpus}/train.json")
    dev = Dataset.load(f"{args.corpus}/dev.json")
    purple = api.create(
        "purple", llm=MockLLM(GPT4), train=train,
        budget=common.BATCH_BUDGET, consistency_n=common.BATCH_CONSISTENCY,
    )
    print("ready", flush=True)

    tasks, _ = common.task_split(dev.examples, window=common.BATCH_WINDOW)
    rng = random.Random(args.seed)
    passes = []
    for _ in range(common.BATCH_PASSES):
        order = list(tasks)
        rng.shuffle(order)
        passes.append(_run_pass(purple, dev, order))
    result = {
        "tasks": len(tasks),
        "passes": passes,
        "peak_rss_mb": common.proc_peak_rss_mb("self"),
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["span_cost_s"] = tracing.span_cost_s()
    purple.close()
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
