"""Parallel evaluation is byte-identical to serial — the engine's core
contract, including under injected faults and the full wrapper stack."""

import threading

from repro import api
from repro.baselines.zero_few import ZeroShotSQL
from repro.eval import evaluate_approach
from repro.llm import (
    CachingLLM,
    FakeClock,
    FaultPolicy,
    FaultyLLM,
    MockLLM,
    PromptCache,
    RateLimitError,
    ResilientLLM,
    CHATGPT,
)
from repro.obs import Observer

LIMIT = 24


def purple(train, llm):
    return api.create("purple", llm=llm, train=train, consistency_n=5)


class TestParallelDeterminism:
    def test_worker_counts_agree(self, train_set, dev_set):
        reports = [
            evaluate_approach(
                purple(train_set, MockLLM(CHATGPT, seed=2)),
                dev_set, limit=LIMIT, workers=workers,
            )
            for workers in (1, 2, 4)
        ]
        assert reports[0].outcomes == reports[1].outcomes
        assert reports[0].outcomes == reports[2].outcomes

    def test_identical_under_task_scoped_faults(self, train_set, dev_set):
        def build():
            llm = FaultyLLM(
                MockLLM(CHATGPT, seed=2),
                FaultPolicy.transient(0.2, seed=9, scope="task"),
            )
            return purple(train_set, llm)

        serial = evaluate_approach(build(), dev_set, limit=LIMIT, workers=1)
        parallel = evaluate_approach(build(), dev_set, limit=LIMIT, workers=4)
        assert serial.outcomes == parallel.outcomes
        assert serial.total_retries == parallel.total_retries

    def test_identical_with_full_wrapper_stack(self, train_set, dev_set):
        def build():
            llm = FaultyLLM(
                MockLLM(CHATGPT, seed=2),
                FaultPolicy.transient(0.15, seed=4, scope="task"),
            )
            llm = CachingLLM(llm, cache=PromptCache())
            return purple(train_set, llm)

        serial = evaluate_approach(build(), dev_set, limit=LIMIT, workers=1)
        parallel = evaluate_approach(build(), dev_set, limit=LIMIT, workers=4)
        assert serial.outcomes == parallel.outcomes

    def test_warm_cache_run_matches_cold(self, train_set, dev_set):
        llm = CachingLLM(MockLLM(CHATGPT, seed=2), cache=PromptCache())
        approach = purple(train_set, llm)
        cold = evaluate_approach(
            approach, dev_set, limit=LIMIT, workers=1, observer=Observer()
        )
        # The cache is shared; each run's observer counts its own lookups.
        warm = evaluate_approach(
            approach, dev_set, limit=LIMIT, workers=4, observer=Observer()
        )
        assert cold.telemetry.cache_misses > 0
        assert warm.telemetry.cache_hit_rate >= 0.9
        assert warm.outcomes == cold.outcomes

    def test_timing_reflects_worker_count(self, train_set, dev_set):
        report = evaluate_approach(
            purple(train_set, MockLLM(CHATGPT, seed=2)),
            dev_set, limit=8, workers=3, observer=Observer(),
        )
        assert report.timing.workers == 3
        assert len(report.timing.latencies) == len(report.outcomes)
        assert report.timing.wall_time > 0.0
        totals = report.timing.stages
        for name in ("prune", "skeleton", "select", "llm", "adapt", "execute"):
            assert name in totals

    def test_retries_charged_to_their_own_task(self, dev_set):
        """Two tasks whose provider calls overlap: each is charged only
        the one retry its own call made, not the other task's."""

        class LockstepLLM:
            """Fails each thread's first call; every call waits for the
            other worker's, so both retries happen while both tasks run."""

            name = "lockstep"

            def __init__(self, inner):
                self.inner = inner
                self.barrier = threading.Barrier(2, timeout=30)
                self.seen = threading.local()

            def complete(self, request):
                self.barrier.wait()
                if not getattr(self.seen, "failed", False):
                    self.seen.failed = True
                    raise RateLimitError()
                return self.inner.complete(request)

        llm = ResilientLLM(
            LockstepLLM(MockLLM(CHATGPT, seed=2)), clock=FakeClock()
        )
        report = evaluate_approach(
            ZeroShotSQL(llm), dev_set, limit=2, workers=2, observer=Observer()
        )
        assert report.telemetry.llm_retries == 2
        assert [o.retries for o in report.outcomes] == [1, 1]
        assert all(o.answered for o in report.outcomes)

    def test_task_scoped_fault_schedule_is_per_lane(self):
        from repro.llm.faults import fault_schedule

        policy = FaultPolicy.transient(0.3, seed=1, scope="task")
        lane_a = fault_schedule(policy, 20, lane="ex-a")
        lane_b = fault_schedule(policy, 20, lane="ex-b")
        assert lane_a != lane_b  # lanes draw from distinct streams
        assert lane_a == fault_schedule(policy, 20, lane="ex-a")
