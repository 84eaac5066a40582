"""Deterministic worker-pool scheduler for evaluation runs.

:func:`map_ordered` applies a task function to every item, optionally on
a thread pool, and returns results **in item order** — a parallel run
produces exactly the sequence a serial run would, so reports stay
byte-identical across worker counts.  Around each call the engine scopes
the task's *lane* (see :mod:`repro.utils.context`), which task-scoped
fault policies and other per-task state key on, and installs a stage
collector so pipeline code instrumented with
:func:`repro.eval.timing.stage` attributes its wall time to the right
task.

Threads (not processes) are the right pool here: a real provider
round-trip releases the GIL while the worker waits on it.  With the
in-process :class:`~repro.llm.MockLLM` a task is CPU-bound, so extra
workers change the schedule, never the results.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import nullcontext
from typing import Callable, Iterable, Optional, Sequence

from repro.eval.timing import TaskTiming, collect_stages
from repro.utils.context import task_lane


def map_ordered(
    fn: Callable,
    items: Sequence,
    *,
    workers: int = 1,
    lane_of: Optional[Callable] = None,
    observer=None,
) -> tuple:
    """Apply ``fn`` to each item; return ``(results, timings)`` in item order.

    ``workers <= 1`` runs serially on the calling thread — the reference
    schedule.  With more workers the items are dispatched to a thread
    pool and the results reassembled into submission order, so the two
    modes are indistinguishable from the outside.  ``lane_of(item)``
    names the task's lane (defaults to the item's position); an
    exception from ``fn`` propagates after the pool drains.

    ``observer`` (a :class:`repro.obs.Observer`) is activated *inside*
    each task — contextvars are per-thread, so installing it around the
    pool would leave worker threads unobserved — and opens the task's
    root span on its lane.
    """
    items = list(items)
    lanes = [
        str(i) if lane_of is None else lane_of(item)
        for i, item in enumerate(items)
    ]

    def run_one(index: int):
        """Run one item under its lane/observer; returns (value, timing)."""
        stages: dict = {}
        observed = (
            observer.task(lanes[index]) if observer is not None else nullcontext()
        )
        started = time.perf_counter()
        with task_lane(lanes[index]), collect_stages(stages), observed:
            value = fn(items[index])
        latency = time.perf_counter() - started
        return value, TaskTiming(ex_id=lanes[index], latency=latency, stages=stages)

    results: list = [None] * len(items)
    timings: list = [None] * len(items)
    if workers <= 1:
        for index in range(len(items)):
            results[index], timings[index] = run_one(index)
        return results, timings

    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-eval"
    ) as pool:
        futures = {
            pool.submit(run_one, index): index for index in range(len(items))
        }
        for future in as_completed(futures):
            index = futures[future]
            results[index], timings[index] = future.result()
    return results, timings
