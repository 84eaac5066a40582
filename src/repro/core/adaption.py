"""Database adaption (§IV-D1): repair the six hallucination error classes.

Repairs run **only** on SQL that fails to execute, so valid queries are
never perturbed ("the SQL adaption strategy does not introduce undesired
side effects to the valid SQL").  A failing query gets up to
``max_attempts`` repair rounds.

Each round is *diagnosis-directed*: the static analyzer
(:mod:`repro.analysis.sqlcheck`) maps the failure to its hallucination
class, and the matching fixer runs first.  When the diagnosis is empty
or its fixer does not apply, the round falls back to probing the
remaining fixers in canonical order — the original behaviour, kept as a
safety net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.diagnostics import record_diagnostics
from repro.analysis.sqlcheck import SQLAnalyzer
from repro.obs import runtime as obs
from repro.schema import Database, SchemaGraph, SQLiteExecutor
from repro.sqlkit.ast_nodes import (
    Agg,
    ColumnRef,
    Comparison,
    FuncCall,
    JoinedTable,
    Query,
    SelectCore,
    SelectItem,
    TableRef,
    walk,
)
from repro.sqlkit.errors import SQLError
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.render import render_sql
from repro.utils.text import edit_distance


@dataclass
class RepairOutcome:
    """What happened to one candidate SQL.

    ``diagnosed`` lists the analyzer rule ids that drove the repair
    rounds (empty when every fix came from the fallback probe).
    """

    sql: str
    repaired: bool = False
    attempts: int = 0
    fixes: tuple = ()
    diagnosed: tuple = ()


class DatabaseAdapter:
    """Adapts LLM output to the target database schema."""

    def __init__(self, executor: SQLiteExecutor, max_attempts: int = 5):
        self.executor = executor
        self.max_attempts = max_attempts
        self._analyzers: dict = {}

    def _analyzer(self, database: Database) -> SQLAnalyzer:
        analyzer = self._analyzers.get(database.db_id)
        if analyzer is None:
            analyzer = SQLAnalyzer(database.schema)
            self._analyzers[database.db_id] = analyzer
        return analyzer

    def diagnose(self, sql: str, database: Database) -> list:
        """Static diagnostics for ``sql`` against ``database``'s schema."""
        return self._analyzer(database).analyze(sql)

    def adapt(
        self, sql: str, database: Database, *, memo: Optional[dict] = None
    ) -> RepairOutcome:
        """Repair ``sql`` against ``database`` if (and only if) it fails.

        ``memo`` maps SQL text to its repair round's result against
        ``database``, so a caller adapting many texts for one database
        (the n samples of one prompt, which repeat few distinct texts)
        plans each round once.  A reused round records its diagnostics
        and fix metrics again, so metrics do not depend on the memo.
        """
        key = self.executor.register(database)
        if self.executor.execute(key, sql).ok:
            return RepairOutcome(sql=sql)
        memo = {} if memo is None else memo
        fixes: list = []
        diagnosed: list = []
        current = sql
        for attempt in range(1, self.max_attempts + 1):
            fixed = self._apply_one_fix(current, database, diagnosed, memo)
            if fixed is None or fixed == current:
                return RepairOutcome(
                    sql=current, repaired=False, attempts=attempt,
                    fixes=tuple(fixes), diagnosed=tuple(diagnosed),
                )
            current, fix_name = fixed
            fixes.append(fix_name)
            if self.executor.execute(key, current).ok:
                return RepairOutcome(
                    sql=current, repaired=True, attempts=attempt,
                    fixes=tuple(fixes), diagnosed=tuple(diagnosed),
                )
        return RepairOutcome(
            sql=current, repaired=False, attempts=self.max_attempts,
            fixes=tuple(fixes), diagnosed=tuple(diagnosed),
        )

    # -- one repair round ------------------------------------------------------------

    def _apply_one_fix(
        self, sql: str, database: Database, diagnosed: list, memo: dict
    ) -> Optional[tuple]:
        """One repair round: ``(fixed sql, fix name)`` or None, with its
        diagnostics and fix recorded."""
        if sql not in memo:
            memo[sql] = self._plan_fix(sql, database)
        diagnostics, fix = memo[sql]
        record_diagnostics(diagnostics)
        if fix is None:
            return None
        fixed_sql, name, phase, rules = fix
        diagnosed.extend(rules)
        obs.count("adaption.fix", mode=phase)
        return fixed_sql, name

    def _plan_fix(self, sql: str, database: Database) -> tuple:
        """``(diagnostics, fix)`` of one repair round, a pure function of
        ``sql`` and ``database``.

        ``diagnostics`` is empty when ``sql`` does not parse.  ``fix`` is
        None when no fixer applies, else ``(fixed sql, fix name, phase,
        directed rule ids)``: phase ``"directed"`` when the analyzer's
        diagnosis named the fixer's class, ``"probed"`` otherwise.
        """
        try:
            query = parse_sql(sql)
        except SQLError:
            return (), None
        diagnostics = self.diagnose(sql, database)
        classes = {
            d.error_class for d in diagnostics if d.error_class is not None
        }
        directed = [name for name, _ in _FIXERS if name in classes]
        probed = [name for name, _ in _FIXERS if name not in classes]
        fixer_by_name = dict(_FIXERS)
        for phase, names in (("directed", directed), ("probed", probed)):
            for name in names:
                mutated = fixer_by_name[name](query, database)
                if mutated is not None:
                    rules = ()
                    if phase == "directed":
                        rules = tuple(
                            d.rule for d in diagnostics
                            if d.error_class == name
                        )
                    return diagnostics, (render_sql(mutated), name, phase, rules)
        return diagnostics, None


# ---------------------------------------------------------------------------
# Fixers.  Each inspects the AST against the real schema and returns a fixed
# query, or None when its error class is not present.
# ---------------------------------------------------------------------------


def _bindings(core: SelectCore) -> dict:
    """binding (alias or name, lowercase) -> table name for one core."""
    bindings = {}
    if core.from_clause is None:
        return bindings
    for source in core.from_clause.sources():
        if isinstance(source, TableRef):
            bindings[source.binding()] = source.name.lower()
    return bindings


def fix_function_hallucination(query: Query, database: Database) -> Optional[Query]:
    """CONCAT and friends are unsupported in SQLite.

    Follows §IV-D1's "immediate solution": keep the first column argument
    and omit the call.
    """
    changed = False
    for core in _all_cores(query):
        for item in core.items:
            if not isinstance(item.expr, FuncCall):
                continue
            replacement = next(
                (a for a in item.expr.args if isinstance(a, ColumnRef)),
                item.expr.args[0] if item.expr.args else None,
            )
            if replacement is not None:
                item.expr = replacement
                changed = True
    return query if changed else None


def fix_aggregation_hallucination(query: Query, database: Database) -> Optional[Query]:
    """COUNT(DISTINCT a, b) → COUNT(DISTINCT a), COUNT(DISTINCT b)."""
    for core in _all_cores(query):
        for i, item in enumerate(core.items):
            expr = item.expr
            if isinstance(expr, Agg) and len(expr.args) > 1:
                extra_items = [
                    SelectItem(
                        expr=Agg(func=expr.func, args=[arg], distinct=expr.distinct)
                    )
                    for arg in expr.args[1:]
                ]
                expr.args = expr.args[:1]
                core.items[i + 1 : i + 1] = extra_items
                return query
    return None


def fix_table_column_mismatch(query: Query, database: Database) -> Optional[Query]:
    """A qualified column pointing at a table that lacks it — re-point it
    at the in-scope table that has it."""
    schema = database.schema
    changed = False
    for core in _all_cores(query):
        bindings = _bindings(core)
        for node in _scope_nodes(core):
            if not isinstance(node, ColumnRef) or not node.table:
                continue
            table = bindings.get(node.table.lower())
            if table is None or not schema.has_table(table):
                continue
            if schema.table(table).has_column(node.column):
                continue
            for binding, other in bindings.items():
                if schema.has_table(other) and schema.table(other).has_column(
                    node.column
                ):
                    node.table = _binding_token(core, binding)
                    changed = True
                    break
    return query if changed else None


def fix_column_ambiguity(query: Query, database: Database) -> Optional[Query]:
    """An unqualified column present in several FROM tables — qualify it."""
    schema = database.schema
    changed = False
    for core in _all_cores(query):
        bindings = _bindings(core)
        if len(bindings) < 2:
            continue
        for node in _scope_nodes(core):
            if not isinstance(node, ColumnRef) or node.table:
                continue
            holders = [
                b
                for b, t in bindings.items()
                if schema.has_table(t) and schema.table(t).has_column(node.column)
            ]
            if len(holders) >= 2:
                node.table = _binding_token(core, sorted(holders)[0])
                changed = True
    return query if changed else None


def fix_missing_table(query: Query, database: Database) -> Optional[Query]:
    """A referenced column belongs to a table absent from FROM — join that
    table in along the foreign-key path."""
    schema = database.schema
    graph = SchemaGraph(schema)
    for core in _all_cores(query):
        bindings = _bindings(core)
        if core.from_clause is None or not bindings:
            continue
        in_scope = set(bindings.values())
        for node in _scope_nodes(core):
            if not isinstance(node, ColumnRef) or node.table:
                continue
            if any(
                schema.has_table(t) and schema.table(t).has_column(node.column)
                for t in in_scope
            ):
                continue
            owners = [t.key for t in schema.tables_with_column(node.column)]
            if not owners:
                continue
            anchor = next(iter(in_scope))
            paths = [(graph.join_path(anchor, o), o) for o in owners]
            paths = [(p, o) for p, o in paths if p]
            if not paths:
                continue
            path, owner = min(paths, key=lambda po: len(po[0]))
            _extend_joins(core, path, schema, graph)
            node.table = owner
            return query
    return None


def fix_schema_hallucination(query: Query, database: Database) -> Optional[Query]:
    """A column that exists nowhere — substitute the minimal-edit-distance
    column of the in-scope tables."""
    schema = database.schema
    for core in _all_cores(query):
        bindings = _bindings(core)
        in_scope = [t for t in bindings.values() if schema.has_table(t)]
        if not in_scope:
            continue
        for node in _scope_nodes(core):
            if not isinstance(node, ColumnRef):
                continue
            if any(schema.table(t).has_column(node.column) for t in in_scope):
                continue
            if any(
                t.has_column(node.column) for t in schema.tables
            ):
                continue  # exists elsewhere: that's Missing-Table's job
            candidates = [
                (edit_distance(node.column.lower(), col.key), t, col.name)
                for t in in_scope
                for col in schema.table(t).columns
            ]
            if not candidates:
                continue
            _, table, column = min(candidates)
            node.column = column
            if node.table is None and len(bindings) > 1:
                node.table = _binding_for_table(core, table)
            return query
    return None


_FIXERS = (
    ("function_hallucination", fix_function_hallucination),
    ("aggregation_hallucination", fix_aggregation_hallucination),
    ("table_column_mismatch", fix_table_column_mismatch),
    ("column_ambiguity", fix_column_ambiguity),
    ("missing_table", fix_missing_table),
    ("schema_hallucination", fix_schema_hallucination),
)


# -- helpers ---------------------------------------------------------------------


def _all_cores(query: Query) -> list:
    cores = []
    for node in walk(query):
        if isinstance(node, SelectCore):
            cores.append(node)
    return cores


def _scope_nodes(core: SelectCore):
    """Nodes of one core without descending into nested subqueries."""
    stack = list(core.children())
    while stack:
        node = stack.pop()
        if isinstance(node, Query):
            continue
        yield node
        stack.extend(node.children())


def _binding_token(core: SelectCore, binding: str) -> str:
    """The original-case alias/name for a lowercase binding."""
    for source in core.from_clause.sources():
        if isinstance(source, TableRef) and source.binding() == binding:
            return source.alias or source.name
    return binding


def _binding_for_table(core: SelectCore, table: str) -> Optional[str]:
    for source in core.from_clause.sources():
        if isinstance(source, TableRef) and source.name.lower() == table:
            return source.alias or source.name
    return None


def _extend_joins(core: SelectCore, path: list, schema, graph: SchemaGraph) -> None:
    """Join the tables along ``path`` into the FROM clause."""
    present = {b for b in _bindings(core).values()}
    previous = path[0]
    for table in path[1:]:
        if table in present:
            previous = table
            continue
        fk = graph.edge_fk(previous, table)
        on = None
        if fk is not None:
            src_t, src_c, dst_t, dst_c = fk.normalized()
            # Tables already in scope may be aliased; refer to them by
            # their binding, new tables by their plain name.
            src_ref = _binding_for_table(core, src_t) or src_t
            dst_ref = _binding_for_table(core, dst_t) or dst_t
            if src_t == table:
                src_ref = table
            if dst_t == table:
                dst_ref = table
            on = Comparison(
                op="=",
                left=ColumnRef(column=src_c, table=src_ref),
                right=ColumnRef(column=dst_c, table=dst_ref),
            )
        core.from_clause.joins.append(
            JoinedTable(source=TableRef(name=table), on=on)
        )
        present.add(table)
        previous = table
