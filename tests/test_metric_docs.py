"""The metric catalogue cannot drift from the code.

Every literal metric name ``src/`` passes to ``count``/``gauge``/
``observe`` appears in the "Metric names" table of
``docs/observability.md``, the table lists nothing else, and every
metric :class:`~repro.obs.telemetry.RunTelemetry` reads is emitted
somewhere, so no deletion can leave a telemetry field stuck at 0.
"""

import ast
import re
from pathlib import Path

from repro.analysis.pylint import _is_metric_call, _obs_helper_imports
from repro.obs.telemetry import _SOURCES

REPO = Path(__file__).resolve().parent.parent


def emitted_metric_names() -> set:
    """Literal first arguments of every metric call under ``src/``."""
    names = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        bare_helpers = _obs_helper_imports(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _is_metric_call(node, bare_helpers)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                names.add(node.args[0].value)
    return names


def documented_metric_names() -> set:
    """Backticked names in the first column of the "Metric names" table,
    without their ``{labels}``."""
    text = (REPO / "docs" / "observability.md").read_text()
    section = text.split("\n## Metric names\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            first_column = line.split(" | ", 1)[0]
            for name in re.findall(r"`([^`]+)`", first_column):
                names.add(name.split("{", 1)[0])
    return names


def test_docs_table_lists_exactly_the_emitted_metrics():
    emitted = emitted_metric_names()
    documented = documented_metric_names()
    assert sorted(emitted - documented) == [], "emitted but not documented"
    assert sorted(documented - emitted) == [], "documented but never emitted"


def test_every_telemetry_field_is_emitted():
    emitted = emitted_metric_names()
    read = {metric for _, metric, _ in _SOURCES}
    assert sorted(read - emitted) == []
