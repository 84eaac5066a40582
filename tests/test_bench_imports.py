"""Every bench module imports cleanly.

The benches live outside ``testpaths``, so nothing in tier-1 collects
them; a bench importing a helper from a deleted sibling, or a name the
library no longer exports, would otherwise go unnoticed until the next
full benchmark run.  Importing is cheap: the expensive corpus and
training work sits behind session fixtures, not at module level.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in BENCHMARKS.glob("bench_*.py"))
)
def test_bench_module_imports(module):
    importlib.import_module(f"benchmarks.{module}")
