"""Extract which schema items a gold SQL uses — classifier training labels.

§IV-A1: "For each input pair (X, D), the labels are extracted from the SQL
Y to identify the presence (absence) of each table or column."
"""

from __future__ import annotations

from repro.schema import Schema
from repro.sqlkit.ast_nodes import (
    ColumnRef,
    Query,
    SubquerySource,
    TableRef,
)
from repro.sqlkit.errors import SQLError
from repro.sqlkit.parser import parse_sql


def used_schema_items(sql: str, schema: Schema) -> tuple:
    """Return ``(used_tables, used_columns)`` for a SQL string.

    ``used_tables`` is a set of table keys; ``used_columns`` a set of
    ``(table_key, column_key)``.  Aliases are resolved scope by scope.
    """
    try:
        query = parse_sql(sql)
    except SQLError:
        return set(), set()
    tables: set = set()
    columns: set = set()
    _collect(query, schema, tables, columns, outer_aliases={})
    return tables, columns


def dataset_used_items(dataset) -> list:
    """:func:`used_schema_items` of every example, in dataset order.

    Training PURPLE reads these labels three times (classifier labels,
    skeleton table counts, pruned demonstration schemas); computing
    them once parses each gold SQL once.
    """
    return [
        used_schema_items(ex.sql, dataset.database(ex.db_id).schema)
        for ex in dataset
    ]


def _collect(query: Query, schema: Schema, tables: set, columns: set,
             outer_aliases: dict) -> None:
    for core in query.all_cores():
        aliases = dict(outer_aliases)
        scope_tables = []
        if core.from_clause is not None:
            for source in core.from_clause.sources():
                if isinstance(source, TableRef):
                    name = source.name.lower()
                    if schema.has_table(name):
                        tables.add(name)
                        scope_tables.append(name)
                        aliases[name] = name
                        if source.alias:
                            aliases[source.alias.lower()] = name
                elif isinstance(source, SubquerySource):
                    _collect(source.query, schema, tables, columns, aliases)
        sole = scope_tables[0] if len(scope_tables) == 1 else None
        for node in _walk_scope(core):
            if isinstance(node, ColumnRef):
                _record_column(node, schema, aliases, sole, columns)
            elif isinstance(node, Query):
                # A nested subquery opens its own scope.
                _collect(node, schema, tables, columns, aliases)


def _walk_scope(core):
    """Yield nodes of one SELECT scope; nested Query nodes are yielded but
    not descended into (their scope is handled recursively)."""
    stack = list(core.children())
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Query, SubquerySource)):
            continue
        stack.extend(node.children())


def _record_column(ref: ColumnRef, schema: Schema, aliases: dict, sole,
                   columns: set) -> None:
    column = ref.column.lower()
    if ref.table:
        table = aliases.get(ref.table.lower())
        if table and schema.has_table(table) and schema.table(table).has_column(column):
            columns.add((table, column))
        return
    if sole is not None and schema.has_table(sole):
        if schema.table(sole).has_column(column):
            columns.add((sole, column))
        return
    # Unqualified in a multi-table scope: attribute to any table having it.
    for table in schema.tables:
        if table.has_column(column):
            columns.add((table.key, column))
            return
