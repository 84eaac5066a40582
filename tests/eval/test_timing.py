"""RunTiming latency percentiles: the nearest-rank definition, exactly."""

import pytest

from repro.eval.timing import RunTiming


def timing(latencies):
    return RunTiming(workers=1, wall_time=sum(latencies), latencies=latencies)


class TestLatencyPercentile:
    def test_empty_returns_zero(self):
        assert timing([]).latency_percentile(95) == 0.0

    def test_single_sample_every_q(self):
        run = timing([0.42])
        for q in (0, 50, 95, 100):
            assert run.latency_percentile(q) == 0.42

    def test_hundred_samples_nearest_rank(self):
        # Latencies 0.01..1.00: pq must be the q-th order statistic, not
        # the (q+1)-th — the off-by-one the ceil() form fixes.
        run = timing([i / 100.0 for i in range(1, 101)])
        assert run.latency_percentile(95) == pytest.approx(0.95)
        assert run.latency_percentile(50) == pytest.approx(0.50)
        assert run.latency_percentile(100) == pytest.approx(1.00)
        # p0 clamps to the minimum rather than indexing below the list.
        assert run.latency_percentile(0) == pytest.approx(0.01)

    def test_rank_rounds_up_between_samples(self):
        # n=4: p50 → ceil(2.0)=2nd value; p51 → ceil(2.04)=3rd value.
        run = timing([1.0, 2.0, 3.0, 4.0])
        assert run.latency_percentile(50) == 2.0
        assert run.latency_percentile(51) == 3.0
        assert run.latency_percentile(95) == 4.0

    def test_unsorted_input(self):
        run = timing([3.0, 1.0, 2.0])
        assert run.latency_percentile(0) == 1.0
        assert run.latency_percentile(100) == 3.0
