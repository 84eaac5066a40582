"""Sliding-window metrics: rotation, expiry, and concurrency.

The satellite contract: multi-threaded writers against a shared
``FakeClock`` never drop or double-count an observation across window
rotation, and a snapshot is identical regardless of how many workers
produced the traffic.
"""

import threading
from bisect import bisect_left

import pytest

from repro.llm.resilient import FakeClock
from repro.obs.metrics import LATENCY_BUCKET_BOUNDS_MS
from repro.obs.windows import (
    WindowedCounter,
    WindowedHistogram,
    WindowedMetrics,
)


class TestWindowedCounter:
    def test_counts_inside_window(self):
        clock = FakeClock()
        counter = WindowedCounter(window_s=10.0, resolution_s=1.0,
                                  clock=clock)
        for _ in range(5):
            counter.add()
            clock.now += 1.0
        assert counter.total() == 5.0
        assert counter.rate() == pytest.approx(0.5)

    def test_old_observations_age_out(self):
        clock = FakeClock()
        counter = WindowedCounter(window_s=10.0, resolution_s=1.0,
                                  clock=clock)
        counter.add(3.0)
        clock.now += 5.0
        counter.add(2.0)
        clock.now += 6.0  # the first slot is now outside the window
        assert counter.total() == 2.0
        clock.now += 10.0
        assert counter.total() == 0.0

    def test_slot_reuse_resets_stale_values(self):
        clock = FakeClock()
        counter = WindowedCounter(window_s=3.0, resolution_s=1.0,
                                  clock=clock)
        counter.add(7.0)
        # Land exactly on the same ring slot one full rotation later.
        clock.now += 3.0
        counter.add(1.0)
        assert counter.total() == 1.0

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            WindowedCounter(window_s=0.0)
        with pytest.raises(ValueError):
            WindowedCounter(window_s=1.0, resolution_s=-1.0)


class TestWindowedHistogram:
    def test_summary_merges_live_slots(self):
        clock = FakeClock()
        hist = WindowedHistogram(window_s=10.0, resolution_s=1.0,
                                 clock=clock)
        hist.observe(5.0)
        clock.now += 1.0
        hist.observe(50.0)
        summary = hist.summary()
        assert summary.count == 2
        assert summary.bounds == LATENCY_BUCKET_BOUNDS_MS
        assert summary.buckets[bisect_left(summary.bounds, 5.0)] == 1
        assert summary.buckets[bisect_left(summary.bounds, 50.0)] == 1
        assert summary.min == 5.0 and summary.max == 50.0

    def test_quantiles_track_the_window(self):
        clock = FakeClock()
        hist = WindowedHistogram(window_s=10.0, resolution_s=1.0,
                                 clock=clock)
        for _ in range(100):
            hist.observe(40.0)
        clock.now += 11.0  # everything expires
        for _ in range(100):
            hist.observe(400.0)
        p50 = hist.summary().quantile(0.50)
        assert 250.0 <= p50 <= 500.0, "old fast traffic must not drag p50"

    def test_empty_window_summary(self):
        hist = WindowedHistogram(clock=FakeClock())
        summary = hist.summary()
        assert summary.count == 0
        assert summary.quantile(0.99) == 0.0


class TestWindowedMetrics:
    def test_keys_match_cumulative_registry(self):
        clock = FakeClock()
        metrics = WindowedMetrics(clock=clock)
        metrics.count("serve.requests", endpoint="translate")
        snap = metrics.snapshot()
        assert "serve.requests{endpoint=translate}" in snap["counters"]

    def test_snapshot_shape(self):
        clock = FakeClock()
        metrics = WindowedMetrics(window_s=30.0, clock=clock)
        metrics.count("a.b")
        metrics.observe("c.d", 12.0)
        snap = metrics.snapshot()
        assert snap["window_s"] == 30.0
        assert snap["resolution_s"] == 1.0
        assert snap["counters"]["a.b"] == {
            "total": 1.0, "rate": round(1.0 / 30.0, 6),
        }
        hist = snap["histograms"]["c.d"]
        assert hist["count"] == 1
        assert "p99" in hist

    def test_unseen_keys_read_zero(self):
        metrics = WindowedMetrics(clock=FakeClock())
        assert metrics.counter_total("never.seen") == 0.0
        assert metrics.snapshot()["histograms"] == {}


class TestConcurrentWriters:
    """Window rotation under parallel writers: exact, not approximate."""

    WINDOW_S = 8.0
    PER_WORKER = 400

    def _drive(self, workers: int) -> dict:
        clock = FakeClock()
        metrics = WindowedMetrics(window_s=self.WINDOW_S, clock=clock)
        barrier = threading.Barrier(workers + 1)

        def worker(worker_id: int):
            barrier.wait()
            for i in range(self.PER_WORKER):
                metrics.count("load.requests", endpoint="translate")
                metrics.observe("load.latency_ms", float(i % 50),
                                endpoint="translate")

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(workers)
        ]
        for t in threads:
            t.start()
        # Advance the clock while writers are mid-flight so slots rotate
        # under them; total steps stay inside one window so nothing the
        # workers wrote can age out before the final read.
        barrier.wait()
        for _ in range(int(self.WINDOW_S) - 2):
            clock.now += 1.0
        for t in threads:
            t.join()
        return metrics.snapshot()

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_no_drops_no_double_counts(self, workers):
        snap = self._drive(workers)
        expected = float(workers * self.PER_WORKER)
        key = "load.requests{endpoint=translate}"
        assert snap["counters"][key]["total"] == expected
        hist = snap["histograms"]["load.latency_ms{endpoint=translate}"]
        assert hist["count"] == workers * self.PER_WORKER
        assert sum(hist["buckets"]) == hist["count"]

    def test_snapshot_identical_across_worker_counts(self):
        # Same total traffic split across different worker counts must
        # produce the same windowed truth (rates, buckets, quantiles).
        def normalized(workers):
            clock = FakeClock()
            metrics = WindowedMetrics(window_s=16.0, clock=clock)
            total = 1200
            per_worker = total // workers
            values = [float((i * 13) % 200) for i in range(total)]
            chunks = [
                values[w * per_worker:(w + 1) * per_worker]
                for w in range(workers)
            ]

            def worker(chunk):
                for value in chunk:
                    metrics.count("t.requests")
                    metrics.observe("t.latency_ms", value)

            threads = [
                threading.Thread(target=worker, args=(chunk,))
                for chunk in chunks
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return metrics.snapshot()

        assert normalized(1) == normalized(3) == normalized(8)