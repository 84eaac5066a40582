"""The shared diagnostic model for every rule engine in this package.

Both the SQL semantic analyzer (:mod:`repro.analysis.sqlcheck`) and the
Python lint engine (:mod:`repro.analysis.pylint`) report findings as
:class:`Diagnostic` records: a stable rule id, a severity, a source span,
a human message, and a machine-readable fix hint.  One model means one
JSON shape for ``repro lint --format json`` / ``repro analyze --format
json``, one metrics key (``analysis.rule{rule=...}``) for the
observability layer, and one waiver convention.

Severities:

* ``error`` — the construct is statically known to fail (SQL: the
  statement cannot execute on SQLite; Python: the repo's correctness
  conventions are violated).  Errors gate exit codes and the repair
  loop's candidate guard.
* ``warning`` — semantically suspect but executable (e.g. a bare column
  under aggregation, which SQLite tolerates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs import runtime as obs

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Span:
    """Where a diagnostic anchors in its source.

    ``line`` is 1-based; ``col`` is the 0-based character offset within
    that line (for one-line SQL strings the offset into the statement).
    ``length`` covers the offending token when known.
    """

    line: int = 1
    col: int = 0
    length: int = 0

    def as_dict(self) -> dict:
        return {"line": self.line, "col": self.col, "length": self.length}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a rule engine.

    ``fix_hint`` is machine-readable repair guidance: the SQL analyzer
    puts the matching hallucination ``error_class`` there (which is how
    the database adapter picks its repair directly), plus the offending
    identifiers; Python rules describe the expected rewrite.
    """

    rule: str
    message: str
    severity: str = "error"
    span: Optional[Span] = None
    file: Optional[str] = None
    fix_hint: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def error_class(self) -> Optional[str]:
        """The paper's hallucination class this finding maps to, if any."""
        return self.fix_hint.get("error_class")

    def as_dict(self) -> dict:
        """JSON-ready form (the ``--format json`` line shape)."""
        payload = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.file is not None:
            payload["file"] = self.file
        if self.span is not None:
            payload["span"] = self.span.as_dict()
        if self.fix_hint:
            payload["fix_hint"] = dict(self.fix_hint)
        return payload

    def render(self) -> str:
        """One-line human form: ``file:line:col: severity rule message``."""
        location = self.file or "<sql>"
        if self.span is not None:
            location += f":{self.span.line}:{self.span.col}"
        return f"{location}: {self.severity} [{self.rule}] {self.message}"


def record_diagnostics(diagnostics: list) -> None:
    """Feed per-rule counters to the active observer (no-op when off)."""
    for diagnostic in diagnostics:
        obs.count("analysis.rule", rule=diagnostic.rule)
