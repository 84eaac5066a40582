"""Normalized execution-error information.

SQLite reports failures as free-form message strings, and for a long
time the repo matched substrings of ``str(exc)`` wherever it needed to
know *what kind* of failure happened.  This module is the single place
that parsing lives: every executor failure is normalized into a stable
:class:`ErrorInfo` — a machine-readable code, a coarse category, and the
offending identifier when the message names one — so the repair
formatter, the harness, and the telemetry layer all reason about the
same taxonomy instead of each grepping message text.

The lint rule ``py.no-raw-exc-str`` bans ``str(exc)`` formatting
elsewhere in the package; this file (and the two waived diagnostic
sites) are the only places allowed to touch raw exception text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

#: category values, coarsest first: ``schema`` (the statement references
#: something the database lacks), ``syntax`` (it does not parse),
#: ``resource`` (it ran but tripped an operational guard), ``infra``
#: (the evaluation setup itself is wrong).
CATEGORIES = ("schema", "syntax", "resource", "infra", "unknown")

#: SQLite message shapes worth distinguishing.  Order matters: first
#: match wins.  Each entry is (regex, code, category); a ``ident`` group
#: captures the offending identifier.
_PATTERNS = (
    (re.compile(r"no such table: (?P<ident>\S+)"),
     "no-such-table", "schema"),
    (re.compile(r"no such column: (?P<ident>\S+)"),
     "no-such-column", "schema"),
    (re.compile(r"ambiguous column name: (?P<ident>\S+)"),
     "ambiguous-column", "schema"),
    (re.compile(r"no such function: (?P<ident>\S+)"),
     "no-such-function", "schema"),
    (re.compile(r"misuse of aggregate:? (?P<ident>[\w]+)"),
     "aggregate-misuse", "schema"),
    (re.compile(r"wrong number of arguments to function (?P<ident>[\w]+)"),
     "function-arity", "schema"),
    (re.compile(r"near \"(?P<ident>[^\"]*)\": syntax error"),
     "syntax-error", "syntax"),
    (re.compile(r"syntax error"), "syntax-error", "syntax"),
    (re.compile(r"incomplete input"), "syntax-error", "syntax"),
    (re.compile(r"interrupt"), "interrupted", "resource"),
)


@dataclass(frozen=True)
class ErrorInfo:
    """One execution failure, normalized.

    ``code`` is a stable slug (``no-such-column``, ``statement-timeout``,
    ...), ``category`` one of :data:`CATEGORIES`, ``message`` the
    human-readable text, and ``identifier`` the offending table/column/
    function name when the DBMS message named one.
    """

    code: str
    category: str
    message: str
    identifier: Optional[str] = None

    def render(self) -> str:
        """One-line form for prompts and reports."""
        suffix = f" [{self.identifier}]" if self.identifier else ""
        return f"{self.code} ({self.category}): {self.message}{suffix}"


def normalize_sqlite_error(exc: BaseException) -> ErrorInfo:
    """Classify one ``sqlite3`` exception into an :class:`ErrorInfo`."""
    message = exception_text(exc)
    lowered = message.lower()
    for pattern, code, category in _PATTERNS:
        match = pattern.search(lowered)
        if match is not None:
            identifier = (match.groupdict().get("ident") or None
                          if match.groupdict() else None)
            return ErrorInfo(
                code=code, category=category, message=message,
                identifier=identifier,
            )
    return ErrorInfo(code="sqlite-error", category="unknown", message=message)


def timeout_info(seconds: Optional[float]) -> ErrorInfo:
    """The statement-timeout guard interrupted the query."""
    limit = f"{seconds:g}s" if seconds is not None else "the limit"
    return ErrorInfo(
        code="statement-timeout",
        category="resource",
        message=f"statement timeout after {limit}",
    )


def row_cap_info(max_rows: int) -> ErrorInfo:
    """The result-size guard rejected the query's output."""
    return ErrorInfo(
        code="row-cap",
        category="resource",
        message=f"result exceeds row cap ({max_rows} rows)",
    )


def unknown_database_info(key: str) -> ErrorInfo:
    """The executor has no database registered under this key."""
    return ErrorInfo(
        code="unknown-database",
        category="infra",
        message=f"unknown database {key!r}",
        identifier=key,
    )


def exception_text(exc: BaseException) -> str:
    """Human-readable text of an exception.

    ``str(KeyError("x"))`` yields the quoted repr ``"'x'"`` — this
    helper unwraps single-argument exceptions to their payload so error
    reports read cleanly.  The one sanctioned spelling of ``str(exc)``.
    """
    if len(exc.args) == 1 and isinstance(exc.args[0], str):
        return exc.args[0]
    return str(exc)
