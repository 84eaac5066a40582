"""Static analysis: shared diagnostics, SQL semantic checks, source lint.

Two rule engines share one :class:`Diagnostic` model:

* :mod:`repro.analysis.sqlcheck` — a schema-aware SQL semantic analyzer
  that statically detects the PURPLE hallucination classes (plus general
  defects) without executing anything; it drives diagnosis-directed
  repair in the database adapter;
* :mod:`repro.analysis.pylint` — an AST lint engine over the repo's own
  source tree hosting the project conventions (rendering boundary,
  narrow exceptions, determinism discipline) as registered rules.

Both surface through ``repro lint`` and ``repro analyze``.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Span,
    record_diagnostics,
)
from repro.analysis.dialects import (
    DIALECT_FATAL_RULES,
    DIALECT_RULES,
    PROFILES,
    DialectAnalyzer,
    DialectProfile,
    analyze_dialect,
    get_profile,
)
from repro.analysis.pylint import (
    PACKAGE_ROOT,
    REGISTRY,
    FileContext,
    LintEngine,
    LintRule,
    lint_tree,
)
from repro.analysis.sqlcheck import (
    FATAL_RULES,
    RULE_ERROR_CLASS,
    RULES,
    SQLAnalyzer,
    analyze_sql,
    fatal_diagnostics,
)

__all__ = [
    "Diagnostic",
    "Span",
    "record_diagnostics",
    "DIALECT_FATAL_RULES",
    "DIALECT_RULES",
    "PROFILES",
    "DialectAnalyzer",
    "DialectProfile",
    "analyze_dialect",
    "get_profile",
    "PACKAGE_ROOT",
    "REGISTRY",
    "FileContext",
    "LintEngine",
    "LintRule",
    "lint_tree",
    "FATAL_RULES",
    "RULE_ERROR_CLASS",
    "RULES",
    "SQLAnalyzer",
    "analyze_sql",
    "fatal_diagnostics",
]
