"""Simulated Postgres-flavored execution profile.

The repo has no Postgres server — and does not want one: evaluation must
stay hermetic.  What the guard→execute→repair loop actually needs from a
second dialect is its *observable surface*: which statements the engine
refuses, and how it words the refusal.  :class:`PostgresProfileExecutor`
provides exactly that on top of SQLite storage:

* statements carrying a fatal ``dlct.*`` finding for the ``postgres``
  target (Postgres-reserved identifiers, MySQL quoting, functions
  Postgres lacks, cross-type comparisons) are refused **statically**,
  with an :class:`~repro.schema.errorinfo.ErrorInfo` worded the way
  Postgres words it — SQLite cannot reproduce these failures, so the
  capability matrix stands in for the engine;
* everything else is lowered to the SQLite surface (``FETCH FIRST n
  ROWS ONLY`` → ``LIMIT n``) and executed for real, with any SQLite
  failure re-expressed through
  :func:`~repro.schema.errorinfo.postgresify` (``relation "x" does not
  exist`` instead of ``no such table: x``).

Result rows for legal SQL are therefore byte-identical to the SQLite
backend — EX/TS comparisons stay meaningful across dialects — while
every failure path speaks Postgres, which is what feeds the repair
prompts.  MySQL has no execution profile: it is an analyze/render-only
axis (the matrix flags, the renderer rewrites, nothing executes).
"""

from __future__ import annotations

from typing import Optional

from repro.obs import runtime as obs
from repro.schema.errorinfo import ErrorInfo, postgresify
from repro.schema.model import Database
from repro.schema.sqlite_backend import ExecutionResult, SQLiteExecutor

#: fatal dlct rule -> (postgres error code, category).  Messages come
#: from the diagnostic itself, which already words them pg-style.
_STATIC_CODES = {
    "dlct.function-availability": ("undefined-function", "schema"),
    "dlct.string-concat": ("undefined-operator", "schema"),
    "dlct.implicit-cast": ("undefined-operator", "schema"),
    "dlct.having-alias": ("undefined-column", "schema"),
    "dlct.reserved-identifier": ("syntax-error", "syntax"),
    "dlct.identifier-quoting": ("syntax-error", "syntax"),
    "dlct.limit-form": ("syntax-error", "syntax"),
}


class PostgresProfileExecutor(SQLiteExecutor):
    """SQLite storage behind a Postgres-shaped legality/error surface."""

    dialect = "postgres"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._schemas: dict = {}
        self._analyzers: dict = {}
        self._lowered: dict[str, str] = {}

    def register(self, database: Database, key: Optional[str] = None) -> str:
        key = super().register(database, key)
        with self._lock:
            self._schemas[key] = database.schema
        return key

    def execute(self, key: str, sql: str) -> ExecutionResult:
        info = self._static_reject(key, sql)
        if info is not None:
            obs.count("executor.dialect_rejections", dialect=self.dialect)
            return ExecutionResult(error=info.message, info=info)
        result = super().execute(key, self._lower(sql))
        if result.ok or result.info is None:
            return result
        mapped = postgresify(result.info)
        if mapped is result.info:
            return result
        return ExecutionResult(
            error=mapped.message,
            columns=result.columns,
            timed_out=result.timed_out,
            info=mapped,
        )

    # -- the Postgres-only legality layer ----------------------------------

    def _static_reject(self, key: str, sql: str) -> Optional[ErrorInfo]:
        """A Postgres-specific refusal SQLite cannot reproduce, if any."""
        analyzer = self._analyzer(key)
        if analyzer is None:
            return None
        from repro.analysis.diagnostics import record_diagnostics
        from repro.analysis.sqlcheck import fatal_diagnostics

        for diag in fatal_diagnostics(analyzer.analyze(sql)):
            mapped = _STATIC_CODES.get(diag.rule)
            if mapped is None:
                continue  # sqlite reproduces this failure itself
            code, category = mapped
            record_diagnostics([diag])
            identifier = diag.fix_hint.get("identifier") or diag.fix_hint.get(
                "function"
            )
            return ErrorInfo(
                code=code,
                category=category,
                message=diag.message,
                identifier=identifier,
            )
        return None

    def _analyzer(self, key: str):
        with self._lock:
            analyzer = self._analyzers.get(key)
            if analyzer is None:
                schema = self._schemas.get(key)
                if schema is None:
                    return None
                # Imported lazily: repro.analysis depends on the schema
                # model, so a top-level import would cycle at package
                # init time.
                from repro.analysis.dialects import DialectAnalyzer

                analyzer = DialectAnalyzer(schema, dialect=self.dialect)
                self._analyzers[key] = analyzer
            return analyzer

    def _lower(self, sql: str) -> str:
        """Rewrite pg-legal surface syntax to what SQLite executes."""
        lowered = self._lowered.get(sql)
        if lowered is not None:
            return lowered
        from repro.sqlkit.errors import SQLError
        from repro.sqlkit.parser import parse_sql
        from repro.sqlkit.render import render_sql

        try:
            lowered = render_sql(parse_sql(sql), "sqlite")
        except SQLError:
            lowered = sql  # let SQLite produce the (postgresified) error
        with self._lock:
            if len(self._lowered) >= self.cache_size:
                self._lowered.clear()
            self._lowered[sql] = lowered
        return lowered


def make_executor(dialect: str = "sqlite", **kwargs) -> SQLiteExecutor:
    """The execution backend for one dialect axis.

    ``sqlite`` is the real backend; ``postgres`` the simulated profile.
    MySQL is analyze/render-only and has no executor.
    """
    if dialect == "sqlite":
        return SQLiteExecutor(**kwargs)
    if dialect == "postgres":
        return PostgresProfileExecutor(**kwargs)
    raise ValueError(
        f"no execution profile for dialect {dialect!r}; "
        f"expected sqlite or postgres"
    )
