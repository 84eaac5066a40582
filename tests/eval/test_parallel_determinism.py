"""Parallel evaluation is byte-identical to serial — the engine's core
contract, including under injected faults and the full wrapper stack."""

from repro import api
from repro.eval import evaluate_approach
from repro.llm import (
    CachingLLM,
    FaultPolicy,
    FaultyLLM,
    MockLLM,
    PromptCache,
    CHATGPT,
)

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
        cold = evaluate_approach(approach, dev_set, limit=LIMIT, workers=1)
        cold_stats = llm.stats()
        warm = evaluate_approach(approach, dev_set, limit=LIMIT, workers=4)
        warm_stats = llm.stats()
        # The cache is shared, so the warm run's counters are a delta.
        hits = warm_stats.hits - cold_stats.hits
        lookups = hits + warm_stats.misses - cold_stats.misses
        assert cold_stats.misses > 0
        assert hits / lookups >= 0.9
        assert warm.outcomes == cold.outcomes

    def test_timing_reflects_worker_count(self, train_set, dev_set):
        report = evaluate_approach(
            purple(train_set, MockLLM(CHATGPT, seed=2)),
            dev_set, limit=8, workers=3,
        )
        assert report.timing.workers == 3
        assert len(report.timing.tasks) == len(report.outcomes)
        assert report.timing.wall_time > 0.0
        totals = report.timing.stage_totals()
        for name in ("prune", "skeleton", "select", "llm", "adapt", "execute"):
            assert name in totals

    def test_task_scoped_fault_schedule_is_per_lane(self):
        from repro.llm.faults import fault_schedule

        policy = FaultPolicy.transient(0.3, seed=1, scope="task")
        lane_a = fault_schedule(policy, 20, lane="ex-a")
        lane_b = fault_schedule(policy, 20, lane="ex-b")
        assert lane_a != lane_b  # lanes draw from distinct streams
        assert lane_a == fault_schedule(policy, 20, lane="ex-a")
