"""Shared settings and helpers of the repository benchmark.

The benchmark's own scripts (``run.py``, the batch worker, the traced
``repro serve`` launcher) import this module first, so the BLAS pinning
below happens before NumPy loads; the untraced ``repro serve`` child
gets the same pinning through :func:`child_env`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

#: BLAS/OpenMP pool size in every benchmark process.  Skeleton training is
#: the only multi-threaded phase; left free it ran 19.5-35 s of wall for
#: the same work on a 2-vCPU machine.  Pinned, setup is one steady thread.
BLAS_THREADS = "1"
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "NUMEXPR_NUM_THREADS": BLAS_THREADS,
}
os.environ.update(BLAS_ENV)

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: p95 latency limit (ms) of a served translate, timed from when the
#: request was due.  ``max_rate_rps`` is the highest offered rate that
#: keeps p95 within it.
LATENCY_LIMIT_MS = 250.0

#: The paper configuration of ``batch-paper`` (§V-A4: n=30, 3072 tokens)
#: and the ``repro serve`` CLI defaults of ``serve-unique`` (n=10).
BATCH_CONSISTENCY = 30
BATCH_BUDGET = 3072
SERVE_CONSISTENCY = 10

#: Corpus knobs of ``repro generate``.  ``full`` is ``GeneratorConfig()``
#: (1,980 demos, 400 dev tasks); ``tiny`` keeps the smoke test in seconds.
CORPUS_ARGS = {
    "full": [],
    "tiny": [
        "--train-variants", "1", "--dev-variants", "1",
        "--train-per-db", "6", "--dev-per-db", "6",
    ],
}


def check_checkout() -> None:
    """Exit non-zero unless the cwd is a checkout holding the program."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; run from "
            "the root of a repository checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)


def child_env() -> dict:
    """Environment of every benchmark child: BLAS pinned, ``src`` importable."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def build_dir() -> Path:
    """Where build outputs go: ``$CARGO_TARGET_DIR`` or ``.bench_build``."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    out = base / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    return out


def source_key() -> str:
    """Digest of the program and benchmark sources (keys cached builds)."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(base)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_corpus(size: str) -> Path:
    """Generate the corpus with ``repro generate`` once per source tree."""
    out = build_dir() / f"corpus-{size}-{source_key()}"
    if (out / "dev.json").is_file():
        return out
    tmp = out.with_name(out.name + ".tmp")
    subprocess.run(
        [sys.executable, "-m", "repro", "generate", "--output", str(tmp),
         *CORPUS_ARGS[size]],
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=600,
    )
    tmp.rename(out)
    return out


#: Dev examples per database eligible for the ``serve-unique`` task list; its
#: even positions are measured (20 per database, 160 on the full corpus).
#: Every run pays ~35 s of training, so the measured phase is kept short
#: enough for the whole benchmark to fit its time budget.
TASK_WINDOW = 40

#: ``batch-paper`` measures a smaller list (8 tasks per database, 64 on
#: the full corpus) ``BATCH_PASSES`` times, each pass in its own order,
#: and times each task by its fastest pass.  On a shared 2-vCPU VM the
#: CPU speed switched every 10-20 s between two states ~1.6x apart (a
#: fixed loop took 0.20-0.22 s or 0.33-0.35 s), so one ~10 s pass
#: measured mostly which state the host was in; four passes in
#: different orders give every task a chance to run in the fast one.
#: 64 tasks keep a run near 60 s even while the host is slow, so the
#: whole campaign stays inside its time budget.
BATCH_WINDOW = 16
BATCH_PASSES = 4


def task_split(examples: list, db_of=lambda example: example.db_id,
               window: int = TASK_WINDOW) -> tuple:
    """The fixed task list and the ramp pool of a dev set.

    Even positions among each database's first ``window`` examples form
    the measured task list (every database and hardness level); the rest
    feed the serve rate ramp.  The seed never changes which tasks are
    measured, only their order, so accuracy is exact.
    """
    seen: dict = {}
    tasks, ramp = [], []
    for example in examples:
        db_id = db_of(example)
        position = seen.get(db_id, 0)
        seen[db_id] = position + 1
        measured = position < window and position % 2 == 0
        (tasks if measured else ramp).append(example)
    return tasks, ramp


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def proc_cpu_s(pid: int) -> float:
    """utime+stime of a live process, from ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid) -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def check_reference(name: str, accuracy: dict) -> list:
    """Compare a run's exact accuracy record with the first run's.

    The first run of a workload in a checkout records ``accuracy``; every
    later run (any seed, traced or not) must reproduce it bit for bit.
    Returns the names of the fields that differ.
    """
    path = build_dir() / f"reference-{name}-{source_key()}.json"
    if not path.is_file():
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(accuracy, sort_keys=True))
        tmp.rename(path)
        return []
    recorded = json.loads(path.read_text())
    return sorted(k for k in accuracy if recorded.get(k) != accuracy[k])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
