"""Keep the library free of unused imports.

An import nothing reads is dead weight: it costs start-up time, hides
which modules really depend on which, and outlives the code that once
needed it.  The scan is AST-based: every name a module binds with a
top-level ``import``/``from ... import`` must be read somewhere in that
module (as a name, in a string annotation, or listed in ``__all__``).
Package ``__init__`` modules are exempt, since re-exporting is their job;
a deliberate re-export elsewhere is waived with ``# noqa: unused-import``
on the import's line.
"""

import ast
from pathlib import Path

from repro.analysis import PACKAGE_ROOT

WAIVER = "# noqa: unused-import"


def _bound_names(node) -> list:
    """(name, line) bound by one top-level import statement."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        ((alias.asname or alias.name).split(".")[0], node.lineno)
        for alias in node.names
        if alias.name != "*"
    ]


def _annotations(tree) -> list:
    nodes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.append(node.returns)
        elif isinstance(node, ast.arg):
            nodes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            nodes.append(node.annotation)
    return [n for n in nodes if n is not None]


def _used_names(tree) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return used


def unused_imports(path: Path) -> list:
    """``path:line: name`` for each unused top-level import in one module."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for name, line in _bound_names(node):
            if name in used or WAIVER in lines[line - 1]:
                continue
            found.append(f"{path}:{line}: {name}")
    return found


def scanned_modules(root: Path = PACKAGE_ROOT) -> list:
    return sorted(p for p in root.rglob("*.py") if p.name != "__init__.py")


class TestNoUnusedImports:
    def test_src_tree_scanned(self):
        assert len(scanned_modules()) > 50

    def test_scan_detects_unused_imports(self, tmp_path):
        # The scan must flag each unused form, or the gate is vacuous.
        module = tmp_path / "mod.py"
        module.write_text(
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "from typing import Iterable, Optional\n"
            "from json import dumps, loads\n"
            "def f(x: Optional[int]) -> 'Iterable':\n"
            "    return loads(x)\n"
        )
        assert [line.split(": ")[-1] for line in unused_imports(module)] == [
            "os", "osp", "dumps",
        ]

    def test_all_and_waiver_count_as_use(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "from json import dumps, loads\n"
            f"import os  {WAIVER}\n"
            "__all__ = ['dumps', 'loads']\n"
        )
        assert unused_imports(module) == []

    def test_no_unused_imports(self):
        violations = [v for p in scanned_modules() for v in unused_imports(p)]
        assert not violations, (
            "Unused imports found — delete them, or mark a deliberate "
            f"re-export with '{WAIVER}':\n" + "\n".join(violations)
        )
