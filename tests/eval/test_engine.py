"""The worker-pool scheduler: ordered reassembly, lanes, timing."""

import threading

import pytest

from repro.eval import map_ordered
from repro.obs import Observer, span
from repro.utils.context import current_task_lane


class TestMapOrdered:
    def test_serial_results_in_order(self):
        results, latencies = map_ordered(lambda x: x * 2, [1, 2, 3])
        assert results == [2, 4, 6]
        assert len(latencies) == 3
        assert all(latency >= 0.0 for latency in latencies)

    def test_default_lane_is_position(self):
        lanes, _ = map_ordered(lambda x: current_task_lane(), [7, 8, 9])
        assert lanes == ["0", "1", "2"]

    def test_parallel_results_in_submission_order(self):
        gate = threading.Event()

        def fn(x):
            if x == 0:
                gate.wait(timeout=5.0)  # first item finishes last
            else:
                gate.set()
            return x * 10

        results, _ = map_ordered(fn, list(range(6)), workers=3)
        assert results == [0, 10, 20, 30, 40, 50]

    def test_lane_scoped_per_task(self):
        def fn(item):
            return current_task_lane()

        results, _ = map_ordered(
            fn, ["a", "b"], workers=2, lane_of=lambda item: f"lane-{item}"
        )
        assert results == ["lane-a", "lane-b"]
        assert current_task_lane() is None  # restored outside the run

    def test_stage_times_collected_per_task(self):
        def fn(item):
            with span("stage:llm"):
                pass
            with span("stage:llm"):
                pass
            return item

        observer = Observer()
        _, latencies = map_ordered(
            fn, [1, 2], workers=2, lane_of=str, observer=observer
        )
        for lane, latency in zip(("1", "2"), latencies):
            task, *stages = observer.tracer.lane_spans(lane)
            assert task.name == "task"
            assert [s.name for s in stages] == ["stage:llm", "stage:llm"]
            assert all(s.parent_id == task.span_id for s in stages)
            assert latency >= sum(s.duration for s in stages)

    def test_exception_propagates(self):
        def fn(item):
            if item == 2:
                raise ValueError("task 2 failed")
            return item

        with pytest.raises(ValueError, match="task 2 failed"):
            map_ordered(fn, [1, 2, 3], workers=2)

    def test_empty_items(self):
        assert map_ordered(lambda x: x, []) == ([], [])

    def test_workers_zero_runs_serial(self):
        results, _ = map_ordered(lambda x: x, [1, 2], workers=0)
        assert results == [1, 2]
