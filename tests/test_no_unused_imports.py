"""Keep the library free of unused imports.

The convention lives as the registered ``py.unused-import`` rule in
:mod:`repro.analysis.pylint`: every name a module binds with a top-level
``import``/``from ... import`` must be read somewhere in that module (as
a name, in a string annotation, or listed in ``__all__``).  Package
``__init__`` modules are exempt, since re-exporting is their job; a
deliberate re-export elsewhere is waived with ``# noqa: unused-import``
on the import's line.  This test is the tier-1 assertion that the source
tree satisfies it.
"""

from repro.analysis import PACKAGE_ROOT, REGISTRY, LintEngine

RULE = "py.unused-import"
WAIVER = "# noqa: unused-import"


def unused_imports(root=PACKAGE_ROOT):
    return LintEngine(root=root, rules={RULE: REGISTRY[RULE]}).run()


class TestNoUnusedImports:
    def test_src_tree_scanned(self):
        scanned = [p for p in LintEngine().files() if p.name != "__init__.py"]
        assert len(scanned) > 50

    def test_scan_detects_unused_imports(self, tmp_path):
        # The rule must flag each unused form, or the gate is vacuous.
        (tmp_path / "mod.py").write_text(
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "from typing import Iterable, Optional\n"
            "from json import dumps, loads\n"
            "def f(x: Optional[int]) -> 'Iterable':\n"
            "    return loads(x)\n"
        )
        # A package __init__ re-exports: the same imports pass there.
        (tmp_path / "__init__.py").write_text("import os\n")
        findings = unused_imports(tmp_path)
        assert [(d.span.line, d.message) for d in findings] == [
            (2, "unused import os"),
            (3, "unused import osp"),
            (5, "unused import dumps"),
        ]

    def test_all_and_waiver_count_as_use(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "from json import dumps, loads\n"
            f"import os  {WAIVER}\n"
            "__all__ = ['dumps', 'loads']\n"
        )
        assert unused_imports(tmp_path) == []

    def test_no_unused_imports(self):
        violations = [d.render() for d in unused_imports()]
        assert not violations, (
            "Unused imports found — delete them, or mark a deliberate "
            f"re-export with '{WAIVER}':\n" + "\n".join(violations)
        )
