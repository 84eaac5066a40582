"""Generation-based prompting (the paper's §VII future-work direction).

PURPLE's retrieval-based strategy "is inherently limited by the available
pool of demonstrations".  This module implements the generative
alternative the conclusion sketches: when no demonstration matches the
predicted skeleton closely, *synthesize* one by instantiating the skeleton
over the task's own (pruned) schema — placeholders become real tables,
columns, and values, and the result is verified executable before use.

The synthesized demonstration pairs the generated SQL with the task's own
question text, mirroring self-generated exemplar prompting.
"""

from __future__ import annotations

from typing import Optional

from repro.schema import Database, Schema, SchemaGraph, SQLiteExecutor
from repro.sqlkit.ast_nodes import (
    Agg,
    BetweenExpr,
    ColumnRef,
    Comparison,
    InExpr,
    LikeExpr,
    Literal,
    Query,
    SelectCore,
    Star,
    Subquery,
    SubquerySource,
    TableRef,
)
from repro.sqlkit.errors import SQLError
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.render import render_sql

PLACEHOLDER = "_"


def synthesize_sql(
    skeleton_tokens: tuple,
    schema: Schema,
    database: Database,
    executor: Optional[SQLiteExecutor] = None,
) -> Optional[str]:
    """Instantiate a detail-level skeleton over a schema.

    Returns executable SQL, or None when the skeleton is too exotic for
    the filler (complex skeletons simply fall back to retrieval).
    """
    text = " ".join(skeleton_tokens).replace("LIMIT _", "LIMIT 1")
    try:
        query = parse_sql(text)
    except SQLError:
        return None
    try:
        _Filler(schema, database).fill(query)
    except _CannotFill:
        return None
    sql = render_sql(query)
    if executor is not None:
        key = executor.register(database)
        if not executor.execute(key, sql).ok:
            return None
    else:
        with SQLiteExecutor() as scratch:
            key = scratch.register(database)
            if not scratch.execute(key, sql).ok:
                return None
    return sql


class _CannotFill(Exception):
    """Raised when the skeleton uses structure the filler cannot ground."""


class _Filler:
    """Assigns tables, columns, and values to a skeleton's placeholders."""

    def __init__(self, schema: Schema, database: Database):
        self.schema = schema
        self.database = database
        self.graph = SchemaGraph(schema)

    # -- entry ------------------------------------------------------------------

    def fill(self, query: Query) -> None:
        """Ground every placeholder of the query in the schema."""
        self._fill_query(query, outer_tables=[])

    def _fill_query(self, query: Query, outer_tables: list) -> None:
        for core in query.all_cores():
            self._fill_core(core, outer_tables)

    # -- per-core ----------------------------------------------------------------

    def _fill_core(self, core: SelectCore, outer_tables: list) -> None:
        bindings = self._assign_tables(core, outer_tables)
        tables = list(bindings.values())
        if not tables:
            raise _CannotFill
        column_cycle = self._column_cycle(tables[0])

        for node in self._scope_nodes(core):
            if isinstance(node, Comparison):
                self._fill_comparison(node, bindings, column_cycle, core)
            elif isinstance(node, BetweenExpr):
                self._fill_between(node, bindings, column_cycle)
            elif isinstance(node, LikeExpr):
                self._fill_like(node, bindings, column_cycle)
            elif isinstance(node, InExpr):
                self._fill_in(node, bindings, column_cycle, outer_tables + tables)
            elif isinstance(node, Agg):
                self._fill_agg(node, bindings, column_cycle)
        # Remaining bare placeholders (projections, group/order keys).
        for node in self._scope_nodes(core):
            if isinstance(node, ColumnRef) and node.column == PLACEHOLDER:
                self._assign_column(node, bindings, column_cycle)
        # Nested subqueries open their own scope, related to this one.
        for node in self._scope_nodes(core):
            if isinstance(node, Subquery):
                self._fill_query(node.query, outer_tables=tables)

    # -- tables ------------------------------------------------------------------

    def _assign_tables(self, core: SelectCore, outer_tables: list) -> dict:
        """Assign real tables to FROM placeholders; returns binding->table."""
        clause = core.from_clause
        if clause is None:
            raise _CannotFill
        sources = clause.sources()
        if any(isinstance(s, SubquerySource) for s in sources):
            raise _CannotFill  # derived tables are out of the filler's scope
        bindings: dict = {}
        previous = None
        for i, source in enumerate(sources):
            assert isinstance(source, TableRef)
            if i == 0:
                # In a subquery, prefer a table related to the outer one.
                table = self._pick_first_table(outer_tables)
            else:
                table = self._pick_neighbor(previous)
            source.name = table
            source.alias = f"T{i + 1}" if len(sources) > 1 else None
            bindings[source.binding()] = table
            previous = table
        # Ground ON conditions with the connecting foreign keys.
        for join in clause.joins:
            if join.on is None:
                continue
            if not isinstance(join.on, Comparison):
                raise _CannotFill
            left_binding = sources[0].binding()
            right_binding = join.source.binding()
            fk = self.graph.edge_fk(
                bindings[left_binding], bindings[right_binding]
            )
            if fk is None:
                raise _CannotFill
            src_t, src_c, dst_t, dst_c = fk.normalized()
            left_is_src = bindings[left_binding] == src_t
            join.on.left = ColumnRef(
                column=src_c if left_is_src else dst_c,
                table=_original(sources, left_binding),
            )
            join.on.right = ColumnRef(
                column=dst_c if left_is_src else src_c,
                table=_original(sources, right_binding),
            )
        return bindings

    def _pick_first_table(self, outer_tables: list) -> str:
        if outer_tables:
            for outer in outer_tables:
                for neighbor in self.graph.neighbors(outer):
                    return neighbor
        return self.schema.tables[0].key

    def _pick_neighbor(self, previous: Optional[str]) -> str:
        if previous is not None:
            neighbors = self.graph.neighbors(previous)
            if neighbors:
                return neighbors[0]
        raise _CannotFill

    # -- columns and values ---------------------------------------------------------

    def _column_cycle(self, table: str):
        columns = [
            c.name
            for c in self.schema.table(table).columns
            if c.key != (self.schema.table(table).primary_key or "").lower()
        ] or [c.name for c in self.schema.table(table).columns]
        state = {"i": 0}

        def next_column() -> str:
            """The next non-key column, cycling."""
            name = columns[state["i"] % len(columns)]
            state["i"] += 1
            return name

        return next_column

    def _assign_column(self, ref: ColumnRef, bindings: dict, cycle) -> None:
        ref.column = cycle()
        if len(bindings) > 1:
            ref.table = next(iter(bindings))

    def _numeric_column(self, table: str) -> str:
        for col in self.schema.table(table).columns:
            if col.col_type in ("integer", "real") and col.key != (
                self.schema.table(table).primary_key or ""
            ).lower():
                return col.name
        raise _CannotFill

    def _value_for(self, table: str, column: str):
        values = self.database.column_values(table, column, limit=5)
        if not values:
            raise _CannotFill
        return values[0]

    def _literal_for(self, table: str, column: str) -> Literal:
        value = self._value_for(table, column)
        if isinstance(value, (int, float)):
            return Literal.number(value)
        return Literal.string(str(value))

    def _resolve(self, ref: ColumnRef, bindings: dict) -> tuple:
        if ref.table and ref.table.lower() in bindings:
            return bindings[ref.table.lower()], ref.column
        return next(iter(bindings.values())), ref.column

    # -- predicates -------------------------------------------------------------------

    def _fill_comparison(self, node: Comparison, bindings: dict, cycle, core) -> None:
        if isinstance(node.left, ColumnRef) and node.left.column == PLACEHOLDER:
            self._assign_column(node.left, bindings, cycle)
        if isinstance(node.right, ColumnRef) and node.right.column == PLACEHOLDER:
            if isinstance(node.left, ColumnRef):
                table, column = self._resolve(node.left, bindings)
                literal = self._literal_for(table, column)
                node.right = literal

    def _fill_between(self, node: BetweenExpr, bindings: dict, cycle) -> None:
        if isinstance(node.left, ColumnRef) and node.left.column == PLACEHOLDER:
            # BETWEEN needs a numeric operand.
            table = next(iter(bindings.values()))
            node.left.column = self._numeric_column(table)
            if len(bindings) > 1:
                node.left.table = next(iter(bindings))
        table, column = self._resolve(node.left, bindings)
        value = self._value_for(table, column)
        if not isinstance(value, (int, float)):
            raise _CannotFill
        node.low = Literal.number(value)
        node.high = Literal.number(value + 10)

    def _fill_like(self, node: LikeExpr, bindings: dict, cycle) -> None:
        if isinstance(node.left, ColumnRef) and node.left.column == PLACEHOLDER:
            self._assign_column(node.left, bindings, cycle)
        table, column = self._resolve(node.left, bindings)
        value = self._value_for(table, column)
        word = str(value).split(" ")[0]
        node.pattern = Literal.string(f"%{word}%")

    def _fill_in(self, node: InExpr, bindings: dict, cycle, scope_tables) -> None:
        if not isinstance(node.source, Subquery):
            raise _CannotFill
        outer_table = next(iter(bindings.values()))
        # Fill the inner query first (anchored to the outer table), then
        # ground both sides of the membership test with the connecting FK.
        self._fill_query(node.source.query, outer_tables=[outer_table])
        inner_core = node.source.query.core
        inner_sources = (
            inner_core.from_clause.sources() if inner_core.from_clause else []
        )
        if not inner_sources or not isinstance(inner_sources[0], TableRef):
            raise _CannotFill
        inner_table = inner_sources[0].name.lower()
        fk = self.graph.edge_fk(outer_table, inner_table)
        if fk is None:
            raise _CannotFill
        src_t, src_c, dst_t, dst_c = fk.normalized()
        outer_col = src_c if src_t == outer_table else dst_c
        inner_col = dst_c if src_t == outer_table else src_c
        if isinstance(node.left, ColumnRef) and node.left.column == PLACEHOLDER:
            node.left.column = outer_col
            if len(bindings) > 1:
                node.left.table = next(iter(bindings))
        if inner_core.items and isinstance(inner_core.items[0].expr, ColumnRef):
            inner_core.items[0].expr.column = inner_col
            if len(inner_sources) > 1:
                inner_core.items[0].expr.table = inner_sources[0].binding()
            else:
                inner_core.items[0].expr.table = None

    def _fill_agg(self, node: Agg, bindings: dict, cycle) -> None:
        for i, arg in enumerate(node.args):
            if isinstance(arg, ColumnRef) and arg.column == PLACEHOLDER:
                if node.func == "COUNT" and not node.distinct:
                    node.args[i] = Star()
                else:
                    self._assign_column(arg, bindings, cycle)

    # -- traversal ---------------------------------------------------------------------

    @staticmethod
    def _scope_nodes(core: SelectCore):
        stack = list(core.children())
        while stack:
            node = stack.pop()
            if isinstance(node, Query):
                continue  # handled by _fill_query's all_cores pass
            yield node
            stack.extend(node.children())


def _original(sources: list, binding: str) -> Optional[str]:
    for source in sources:
        if isinstance(source, TableRef) and source.binding() == binding:
            return source.alias or (None if source.alias is None else source.name)
    return None
