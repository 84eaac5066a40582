"""Smoke test of the benchmark harness, end to end on a tiny corpus.

Runs every workload through ``run.py`` with and without tracing and
checks the result line against ``BENCHMARK.json``.  Takes under a
minute.  From the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import tracing  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT,
              preexec_fn=None):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace), "--corpus", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        preexec_fn=preexec_fn,
    )


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload: str, trace: int, seed: int = 3) -> dict:
        proc = run_bench(workload, trace, seed)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        return {name: m["value"] for name, m in result["metrics"].items()}

    def test_batch_end_to_end(self):
        metrics = self.check("batch-paper", 0)
        for name, value in metrics.items():
            self.assertGreater(value, 0, name)
        self.assertEqual(metrics["ok_share"], 1.0)

    def test_batch_accuracy_is_exact_across_seeds(self):
        first = self.check("batch-paper", 0, seed=5)
        second = self.check("batch-paper", 0, seed=6)
        for name in ("em", "ex", "tokens_per_task"):
            self.assertEqual(first[name], second[name], name)

    def test_batch_traced(self):
        metrics = self.check("batch-paper", 1)
        self.assertEqual(metrics["llm.samples_per_call"],
                         common.BATCH_CONSISTENCY)
        self.assertGreater(metrics["llm.ms_per_task"], 0)
        self.assertGreater(metrics["setup.skeleton_train_s"], 0)
        self.assertEqual(metrics["transport.ms_per_request"], 0)

    def test_serve_end_to_end(self):
        metrics = self.check("serve-unique", 0)
        for name, value in metrics.items():
            self.assertGreater(value, 0, name)
        self.assertEqual(metrics["ok_share"], 1.0)

    def test_serve_traced(self):
        metrics = self.check("serve-unique", 1)
        self.assertEqual(metrics["llm.samples_per_call"],
                         common.SERVE_CONSISTENCY)
        self.assertGreater(metrics["serve.handler_ms"], 0)
        self.assertGreater(metrics["transport.ms_per_request"], 0)
        self.assertGreater(metrics["live.ms_per_request"], 0)

    def test_serve_stops_when_started_with_sigint_ignored(self):
        # As a shell starts a background job: the server must still stop.
        proc = run_bench(
            "serve-unique", 0,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_refuses_to_run_without_the_program(self):
        bare = common.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("batch-paper", 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_latency_limit_is_recorded(self):
        why = {w["name"]: w["why"] for w in self.spec["workloads"]}
        self.assertIn(
            f"p95 limit {common.LATENCY_LIMIT_MS:.0f} ms", why["serve-unique"])


class RecorderTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        recorder = tracing.Recorder()
        inner = recorder.wrap("inner", lambda: time.sleep(0.02))

        def outer_fn():
            inner()
            time.sleep(0.01)

        recorder.wrap("outer", outer_fn)()
        spans = {s["name"]: s for s in recorder.spans}
        self.assertEqual(spans["inner"]["parent"], "outer")
        outer = spans["outer"]
        self.assertAlmostEqual(
            outer["self_wall"], outer["wall"] - spans["inner"]["wall"],
            places=9)
        self.assertLess(outer["self_wall"], spans["inner"]["wall"])

    def test_threads_keep_separate_stacks(self):
        recorder = tracing.Recorder()
        traced = recorder.wrap("work", lambda: time.sleep(0.001))
        threads = [
            threading.Thread(target=lambda: [traced() for _ in range(50)])
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            self.assertFalse(thread.is_alive())
        self.assertEqual(len(recorder.spans), 200)
        self.assertTrue(all(s["parent"] == "" for s in recorder.spans))


if __name__ == "__main__":
    unittest.main()
