"""Schema-aware SQL semantic analyzer.

:class:`SQLAnalyzer` walks a :mod:`repro.sqlkit` AST against a
:class:`~repro.schema.Schema` and statically detects the defects that
would make the statement fail (or silently misbehave) on SQLite —
without executing it.  The six PURPLE hallucination classes (§IV-D1,
Table 2) each map to a rule id, so the database adapter can pick the
matching repair directly from a diagnosis instead of probing fixers,
and the repair loop can reject candidates that are statically doomed.

Severity encodes SQLite's actual behaviour, verified against the
engine: ``error`` means the statement is certain to fail to prepare
(``no such column``, ``ambiguous column name``, ``no such function``,
``misuse of aggregate`` ...), ``warning`` means it executes but is
suspect (bare column under aggregation, affinity-mismatched
comparison, scalar-form ``MAX(a, b)``).

Resolution is deliberately conservative: when a FROM clause contains a
derived table (or an unknown table already reported), columns that fail
to resolve are *not* reported, because they may come from the opaque
source.  Zero false positives on well-formed SQL is a hard requirement
— the analyzer guards real executions.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import Diagnostic, Span
from repro.schema.model import Column, Schema
from repro.sqlkit.ast_nodes import (
    Agg,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Node,
    Query,
    SelectCore,
    Star,
    Subquery,
    SubquerySource,
    TableRef,
)
from repro.sqlkit.errors import SQLError
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.spans import identifier_span
from repro.utils.text import normalize_identifier

#: Rule catalogue: id -> one-line description (rendered by docs and CLI).
RULES = {
    "sql.parse-error": "the statement does not parse as Spider-subset SQL",
    "sql.unknown-table": "FROM references a table absent from the schema",
    "sql.unknown-alias": "a column qualifier matches no FROM binding",
    "sql.unknown-column": "a column that exists in no table of the schema",
    "sql.table-column-mismatch":
        "a qualified column names a table that lacks it while an in-scope "
        "table has it",
    "sql.ambiguous-column":
        "an unqualified column is present in several FROM bindings",
    "sql.missing-table":
        "a column whose only owners are tables absent from FROM",
    "sql.unknown-function": "a function SQLite does not provide",
    "sql.aggregate-arity": "an aggregate called with more than one argument",
    "sql.aggregate-in-where": "an aggregate call inside WHERE",
    "sql.having-without-group-by": "HAVING on a non-aggregate query",
    "sql.set-arity": "compound SELECTs with different column counts",
    "sql.invalid-order-alias": "ORDER BY references a non-existent alias",
    "sql.ungrouped-column": "a bare column not covered by GROUP BY",
    "sql.type-mismatch": "a comparison across incompatible column types",
}

#: error-severity rules whose presence guarantees SQLite will refuse the
#: statement; ``sql.parse-error`` is excluded because our parser covers a
#: subset of SQLite's grammar.
FATAL_RULES = frozenset(RULES) - {
    "sql.parse-error",
    "sql.ungrouped-column",
    "sql.type-mismatch",
}

#: rule id -> PURPLE hallucination class (Table 2) for the rules that
#: diagnose one; this is what diagnosis-directed repair dispatches on.
RULE_ERROR_CLASS = {
    "sql.table-column-mismatch": "table_column_mismatch",
    "sql.ambiguous-column": "column_ambiguity",
    "sql.missing-table": "missing_table",
    "sql.unknown-function": "function_hallucination",
    "sql.unknown-column": "schema_hallucination",
    "sql.aggregate-arity": "aggregation_hallucination",
}

#: scalar functions SQLite provides (3.40 vintage — notably no CONCAT).
SQLITE_FUNCTIONS = frozenset({
    "ABS", "CHAR", "COALESCE", "FORMAT", "GLOB", "HEX", "IFNULL", "IIF",
    "INSTR", "LENGTH", "LIKE", "LOWER", "LTRIM", "MAX", "MIN", "NULLIF",
    "PRINTF", "QUOTE", "REPLACE", "ROUND", "RTRIM", "SIGN", "SUBSTR",
    "SUBSTRING", "TRIM", "TYPEOF", "UNICODE", "UPPER",
    "DATE", "TIME", "DATETIME", "JULIANDAY", "STRFTIME", "UNIXEPOCH",
})


#: Rules other analysis layers register as guard-eligible (the dialect
#: module adds its fatal ``dlct.*`` rules here at import time).
_EXTRA_FATAL_RULES: set = set()


def register_fatal_rules(rules) -> None:
    """Mark additional rule ids as statically dooming execution."""
    _EXTRA_FATAL_RULES.update(rules)


def fatal_diagnostics(diagnostics: list) -> list:
    """The subset that statically dooms execution (guard-eligible)."""
    return [
        d for d in diagnostics
        if d.severity == "error"
        and (d.rule in FATAL_RULES or d.rule in _EXTRA_FATAL_RULES)
    ]


def analyze_sql(sql: str, schema: Schema) -> list:
    """One-shot convenience over :class:`SQLAnalyzer`."""
    return SQLAnalyzer(schema).analyze(sql)


class SQLAnalyzer:
    """Statically check SQL statements against one database schema."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def analyze(self, sql: str) -> list:
        """All diagnostics for ``sql``, in source-traversal order."""
        try:
            query = parse_sql(sql)
        except SQLError as exc:
            span = None
            position = getattr(exc, "position", None)
            if isinstance(position, int):
                span = Span(col=position)
            return [Diagnostic(
                rule="sql.parse-error",
                # SQLError messages are this repo's own, already-stable
                # diagnostics — nothing to normalize.
                message=str(exc),  # noqa: no-raw-exc-str
                severity="error",
                span=span,
            )]
        run = _Run(self.schema, sql)
        run.check_query(query, outer=())
        return run.diagnostics


class _Run:
    """State for one ``analyze`` call: the source text and findings."""

    def __init__(self, schema: Schema, sql: str):
        self.schema = schema
        self.sql = sql
        self.diagnostics: list = []
        self._seen: set = set()

    # -- reporting ---------------------------------------------------------

    def report(
        self,
        rule: str,
        message: str,
        severity: str = "error",
        anchor: Optional[str] = None,
        **fix_hint,
    ) -> None:
        if (rule, message) in self._seen:
            return
        self._seen.add((rule, message))
        error_class = RULE_ERROR_CLASS.get(rule)
        if error_class is not None:
            fix_hint = {"error_class": error_class, **fix_hint}
        span = None
        if anchor is not None:
            found = identifier_span(self.sql, anchor)
            if found is not None:
                span = Span(col=found[0], length=found[1])
        self.diagnostics.append(Diagnostic(
            rule=rule,
            message=message,
            severity=severity,
            span=span,
            fix_hint=fix_hint,
        ))

    # -- query / core traversal -------------------------------------------

    def check_query(self, query: Query, outer: tuple) -> None:
        cores = query.all_cores()
        if query.compounds:
            arities = [_core_arity(core) for core in cores]
            known = [a for a in arities if a is not None]
            if known and any(a != known[0] for a in known):
                op = query.compounds[0][0]
                self.report(
                    "sql.set-arity",
                    f"compound SELECTs project different column counts "
                    f"({', '.join(str(a) if a else '*' for a in arities)})",
                    anchor=op,
                )
        for core in cores:
            self.check_core(core, outer)

    def check_core(self, core: SelectCore, outer: tuple) -> None:
        bindings: dict = {}
        subqueries: list = []
        if core.from_clause is not None:
            for source in core.from_clause.sources():
                if isinstance(source, TableRef):
                    if self.schema.has_table(source.name):
                        bindings[source.binding()] = normalize_identifier(
                            source.name
                        )
                    else:
                        self.report(
                            "sql.unknown-table",
                            f"no table {source.name!r} in schema "
                            f"{self.schema.db_id!r}",
                            anchor=source.name,
                            table=source.name,
                        )
                        bindings[source.binding()] = None
                elif isinstance(source, SubquerySource):
                    bindings[source.binding() or "<derived>"] = None
                    subqueries.append(source.query)
        scope = _Scope((bindings,) + outer, self.schema)
        for sub in subqueries:
            # Derived tables are not correlated on SQLite: the inner
            # query resolves against its own FROM only.
            self.check_query(sub, ())
        aliases = {
            item.alias.lower() for item in core.items if item.alias
        }
        _CoreChecker(self, core, scope, aliases).check()


class _Scope:
    """A chain of binding maps, innermost first.

    Each map is ``binding -> table key`` with None marking an opaque
    source (derived table or unknown table): resolution through an
    opaque source is treated as "might succeed", which suppresses
    reports rather than risking a false positive.
    """

    def __init__(self, chain: tuple, schema: Schema):
        self.chain = chain
        self.schema = schema

    def lookup_binding(self, qualifier: str):
        """(found, table_key_or_None, owning map) for a qualifier."""
        target = qualifier.lower()
        for bindings in self.chain:
            if target in bindings:
                return True, bindings[target], bindings
        return False, None, None

    def has_opaque(self) -> bool:
        """Whether any binding anywhere in the chain is opaque."""
        return any(
            table is None
            for bindings in self.chain
            for table in bindings.values()
        )

    def holders(self, bindings: dict, column: str) -> list:
        """Bindings of one map whose (known) table has ``column``."""
        return sorted(
            b for b, t in bindings.items()
            if t is not None and self.schema.table(t).has_column(column)
        )

    def resolve(self, ref: ColumnRef) -> Optional[Column]:
        """The schema column a reference resolves to, when certain."""
        if ref.table:
            found, table, _ = self.lookup_binding(ref.table)
            if found and table is not None:
                tbl = self.schema.table(table)
                if tbl.has_column(ref.column):
                    return tbl.column(ref.column)
            return None
        for bindings in self.chain:
            holders = self.holders(bindings, ref.column)
            if len(holders) == 1:
                return self.schema.table(bindings[holders[0]]).column(
                    ref.column
                )
            if holders or any(t is None for t in bindings.values()):
                return None
        return None


class _CoreChecker:
    """All per-core rules, sharing one resolution scope."""

    def __init__(self, run: _Run, core: SelectCore, scope: _Scope,
                 aliases: set):
        self.run = run
        self.schema = run.schema
        self.core = core
        self.scope = scope
        self.aliases = aliases

    def run_clause(self, node: Optional[Node], context: str) -> None:
        if node is None:
            return
        for expr in _clause_nodes(node):
            if isinstance(expr, Subquery):
                self.run.check_query(expr.query, self.scope.chain)
            elif isinstance(expr, ColumnRef):
                self.check_column(expr, context)
            elif isinstance(expr, Star):
                self.check_star(expr)
            elif isinstance(expr, Agg):
                self.check_aggregate(expr, context)
            elif isinstance(expr, FuncCall):
                self.check_function(expr)
            elif isinstance(expr, Comparison):
                self.check_comparison(expr)

    def check(self) -> None:
        core = self.core
        for item in core.items:
            self.run_clause(item.expr, "select")
        if core.from_clause is not None:
            for join in core.from_clause.joins:
                self.run_clause(join.on, "on")
        self.run_clause(core.where, "where")
        for expr in core.group_by:
            self.run_clause(expr, "group")
        self.run_clause(core.having, "having")
        for item in core.order_by:
            self.run_clause(item.expr, "order")
        self.check_having_clause()
        self.check_grouping()

    # -- column resolution -------------------------------------------------

    def check_column(self, ref: ColumnRef, context: str) -> None:
        column = ref.column
        if (
            context in ("order", "having", "group")
            and not ref.table
            and column.lower() in self.aliases
        ):
            return  # resolves as a select-list output name
        if ref.table:
            self._check_qualified(ref)
        else:
            self._check_unqualified(ref, context)

    def _check_qualified(self, ref: ColumnRef) -> None:
        found, table, bindings = self.scope.lookup_binding(ref.table)
        if not found:
            if self.scope.has_opaque():
                return
            self.run.report(
                "sql.unknown-alias",
                f"qualifier {ref.table!r} matches no FROM binding",
                anchor=ref.table,
                qualifier=ref.table,
                column=ref.column,
            )
            return
        if table is None:
            return  # derived table: columns are opaque
        if self.schema.table(table).has_column(ref.column):
            return
        holders = self.scope.holders(bindings, ref.column)
        if holders:
            self.run.report(
                "sql.table-column-mismatch",
                f"table {table!r} (bound as {ref.table!r}) has no column "
                f"{ref.column!r}; in-scope holder(s): {', '.join(holders)}",
                anchor=ref.column,
                column=ref.column,
                qualifier=ref.table,
                candidates=holders,
            )
            return
        owners = [
            t.name for t in self.schema.tables_with_column(ref.column)
        ]
        if owners:
            self.run.report(
                "sql.unknown-column",
                f"column {ref.column!r} is not in table {table!r}; it "
                f"exists only in out-of-scope table(s): {', '.join(owners)}",
                anchor=ref.column,
                column=ref.column,
                qualifier=ref.table,
            )
        else:
            self.run.report(
                "sql.unknown-column",
                f"column {ref.column!r} exists in no table of schema "
                f"{self.schema.db_id!r}",
                anchor=ref.column,
                column=ref.column,
            )

    def _check_unqualified(self, ref: ColumnRef, context: str) -> None:
        column = ref.column
        for bindings in self.scope.chain:
            holders = self.scope.holders(bindings, column)
            if len(holders) >= 2:
                self.run.report(
                    "sql.ambiguous-column",
                    f"column {column!r} is ambiguous: present in bindings "
                    f"{', '.join(holders)}",
                    anchor=column,
                    column=column,
                    candidates=holders,
                )
                return
            if holders:
                return  # uniquely resolved in this scope
            if any(t is None for t in bindings.values()):
                return  # an opaque source might provide it
        owners = [t.name for t in self.schema.tables_with_column(column)]
        if owners:
            self.run.report(
                "sql.missing-table",
                f"column {column!r} belongs only to table(s) absent from "
                f"FROM: {', '.join(owners)}",
                anchor=column,
                column=column,
                tables=owners,
            )
        elif context == "order" and self.aliases:
            self.run.report(
                "sql.invalid-order-alias",
                f"ORDER BY references {column!r}, which is neither a "
                f"column in scope nor a select alias "
                f"({', '.join(sorted(self.aliases))})",
                anchor=column,
                column=column,
                aliases=sorted(self.aliases),
            )
        else:
            self.run.report(
                "sql.unknown-column",
                f"column {column!r} exists in no table of schema "
                f"{self.schema.db_id!r}",
                anchor=column,
                column=column,
            )

    def check_star(self, star: Star) -> None:
        if not star.table:
            return
        found, _, _ = self.scope.lookup_binding(star.table)
        if not found and not self.scope.has_opaque():
            self.run.report(
                "sql.unknown-alias",
                f"qualifier {star.table!r} matches no FROM binding",
                anchor=star.table,
                qualifier=star.table,
            )

    # -- aggregates and functions ------------------------------------------

    def check_aggregate(self, agg: Agg, context: str) -> None:
        if context == "where":
            self.run.report(
                "sql.aggregate-in-where",
                f"aggregate {agg.func}() inside WHERE "
                f"(misuse of aggregate on SQLite)",
                anchor=agg.func,
                function=agg.func,
            )
        if len(agg.args) > 1:
            # COUNT/SUM/AVG are unary, and DISTINCT aggregates must take
            # exactly one argument; MAX/MIN with several arguments fall
            # back to SQLite's scalar form — legal, but almost certainly
            # not what a Spider-subset query meant.
            fatal = agg.distinct or agg.func in ("COUNT", "SUM", "AVG")
            self.run.report(
                "sql.aggregate-arity",
                f"{agg.func}({'DISTINCT ' if agg.distinct else ''}...) "
                f"called with {len(agg.args)} arguments",
                severity="error" if fatal else "warning",
                anchor=agg.func,
                function=agg.func,
                arity=len(agg.args),
            )

    def check_function(self, call: FuncCall) -> None:
        if call.name.upper() not in SQLITE_FUNCTIONS:
            self.run.report(
                "sql.unknown-function",
                f"no such function on SQLite: {call.name}",
                anchor=call.name,
                function=call.name,
            )

    # -- comparisons -------------------------------------------------------

    def check_comparison(self, cmp: Comparison) -> None:
        for column_side, other in ((cmp.left, cmp.right),
                                   (cmp.right, cmp.left)):
            if not isinstance(column_side, ColumnRef):
                continue
            if not isinstance(other, Literal) or other.kind != "string":
                continue
            resolved = self.scope.resolve(column_side)
            if resolved is None or resolved.col_type not in (
                "integer", "real"
            ):
                continue
            if _numeric_text(other.value):
                continue  # SQLite affinity converts it cleanly
            self.run.report(
                "sql.type-mismatch",
                f"{resolved.col_type} column {column_side.column!r} "
                f"compared with non-numeric string {other.value!r}",
                severity="warning",
                anchor=column_side.column,
                column=column_side.column,
                col_type=resolved.col_type,
                value=other.value,
            )

    # -- grouping rules ----------------------------------------------------

    def check_having_clause(self) -> None:
        core = self.core
        if core.having is None or core.group_by:
            return
        aggregated = any(
            isinstance(n, Agg)
            for item in core.items
            for n in _clause_nodes(item.expr)
        ) or any(isinstance(n, Agg) for n in _clause_nodes(core.having))
        if not aggregated:
            self.run.report(
                "sql.having-without-group-by",
                "HAVING on a non-aggregate query (no GROUP BY and no "
                "aggregate in sight)",
                anchor="HAVING",
            )

    def check_grouping(self) -> None:
        core = self.core
        bare = [
            item.expr for item in core.items
            if isinstance(item.expr, ColumnRef)
        ]
        if core.group_by:
            grouped_refs = [
                g for g in core.group_by if isinstance(g, ColumnRef)
            ]
            grouped = {g.column.lower() for g in grouped_refs}
            if not grouped:
                return
            for ref in bare:
                if ref.column.lower() in grouped:
                    continue
                if self._grouped_by_row_key(ref, grouped_refs):
                    continue  # functionally determined by the group key
                self.run.report(
                    "sql.ungrouped-column",
                    f"column {ref.column!r} is projected bare but not "
                    f"in GROUP BY (SQLite picks an arbitrary row)",
                    severity="warning",
                    anchor=ref.column,
                    column=ref.column,
                )
            return
        has_agg_item = any(
            any(isinstance(n, Agg) for n in _clause_nodes(item.expr))
            for item in core.items
        )
        if not has_agg_item:
            return
        for ref in bare:
            self.run.report(
                "sql.ungrouped-column",
                f"column {ref.column!r} is projected next to an "
                f"aggregate without GROUP BY",
                severity="warning",
                anchor=ref.column,
                column=ref.column,
            )

    def _owner_binding(self, ref: ColumnRef):
        """(binding, table key) a reference certainly resolves to."""
        if ref.table:
            found, table, _ = self.scope.lookup_binding(ref.table)
            if (
                found and table is not None
                and self.schema.table(table).has_column(ref.column)
            ):
                return ref.table.lower(), table
            return None
        for bindings in self.scope.chain:
            holders = self.scope.holders(bindings, ref.column)
            if len(holders) == 1:
                return holders[0], bindings[holders[0]]
            if holders or any(t is None for t in bindings.values()):
                return None
        return None

    def _grouped_by_row_key(self, ref: ColumnRef, grouped_refs: list) -> bool:
        """Whether the group key is the primary key of ``ref``'s table.

        ``SELECT T2.name, COUNT(*) ... GROUP BY T2.id`` is the standard
        Spider idiom: grouping by a table's primary key functionally
        determines every other column of that table, so the bare
        projection is well-defined, not arbitrary.
        """
        owner = self._owner_binding(ref)
        if owner is None:
            return False
        binding, table = owner
        primary = (self.schema.table(table).primary_key or "").lower()
        if not primary:
            return False
        for grouped in grouped_refs:
            if grouped.column.lower() != primary:
                continue
            grouped_owner = self._owner_binding(grouped)
            if grouped_owner is not None and grouped_owner[0] == binding:
                return True
        return False


# -- small helpers ----------------------------------------------------------


def _clause_nodes(node: Node):
    """``node`` and descendants, stopping at nested queries (which are
    analyzed in their own scope)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (Query, Subquery)):
            continue
        stack.extend(current.children())


def _core_arity(core: SelectCore) -> Optional[int]:
    """Projection width, or None when a star makes it schema-dependent."""
    if any(isinstance(item.expr, Star) for item in core.items):
        return None
    return len(core.items)


def _numeric_text(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True
