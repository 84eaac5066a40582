"""Hallucination injection — the six error classes of Table 2.

Each injector takes a well-formed query AST plus the prompt schema and
returns a corrupted copy (or None when the error class does not apply to
this query shape).  The database-adaption module (§IV-D1) repairs exactly
these classes; injecting them here is what gives the adaption ablation its
effect.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.llm.promptfmt import SchemaInfo
from repro.sqlkit.ast_nodes import (
    Agg,
    ColumnRef,
    FuncCall,
    Literal,
    Query,
    SelectItem,
    TableRef,
    clone,
    walk,
)

ERROR_TYPES = (
    "table_column_mismatch",
    "column_ambiguity",
    "missing_table",
    "function_hallucination",
    "schema_hallucination",
    "aggregation_hallucination",
)


def inject_hallucination(
    query: Query, schema: SchemaInfo, rng: np.random.Generator
) -> tuple:
    """Corrupt a query with one randomly chosen applicable error class.

    Returns ``(corrupted_query, error_type)`` or ``(query, None)`` when no
    class applies.
    """
    order = list(rng.permutation(len(ERROR_TYPES)))
    for idx in order:
        error_type = ERROR_TYPES[int(idx)]
        mutated = _INJECTORS[error_type](query, schema, rng)
        if mutated is not None:
            return mutated, error_type
    return query, None


def inject_specific(
    query: Query, schema: SchemaInfo, error_type: str, rng: np.random.Generator
) -> Optional[Query]:
    """Inject one named error class (used by tests and the Table-2 bench)."""
    return _INJECTORS[error_type](query, schema, rng)


# ---------------------------------------------------------------------------
# Injectors
# ---------------------------------------------------------------------------


def _aliased_tables(query: Query) -> dict:
    """alias (lowercase) -> table name, over the outer FROM clause."""
    aliases = {}
    from_clause = query.core.from_clause
    if from_clause is None:
        return aliases
    for source in from_clause.sources():
        if isinstance(source, TableRef):
            aliases[(source.alias or source.name).lower()] = source.name.lower()
    return aliases


def _table_column_mismatch(query: Query, schema: SchemaInfo, rng) -> Optional[Query]:
    """Point a column at the wrong joined table (``T2.title`` style)."""
    mutated = clone(query)
    aliases = _aliased_tables(mutated)
    if len(aliases) < 2:
        return None
    alias_list = sorted(aliases)
    for node in walk(mutated):
        if isinstance(node, ColumnRef) and node.table:
            current = node.table.lower()
            others = [a for a in alias_list if a != current]
            if not others:
                continue
            wrong = others[int(rng.integers(0, len(others)))]
            wrong_table = aliases[wrong]
            if not schema.has_column(wrong_table, node.column):
                node.table = wrong if aliases[current] != aliases[wrong] else node.table
                return mutated
    return None


def _column_ambiguity(query: Query, schema: SchemaInfo, rng) -> Optional[Query]:
    """Strip the qualifier from a column present in several FROM tables."""
    mutated = clone(query)
    aliases = _aliased_tables(mutated)
    if len(aliases) < 2:
        return None
    tables = set(aliases.values())
    for node in walk(mutated):
        if isinstance(node, ColumnRef) and node.table:
            holders = [t for t in tables if schema.has_column(t, node.column)]
            if len(holders) >= 2:
                node.table = None
                return mutated
    return None


def _missing_table(query: Query, schema: SchemaInfo, rng) -> Optional[Query]:
    """Drop the JOINed table but keep referencing its column (unqualified)."""
    mutated = clone(query)
    from_clause = mutated.core.from_clause
    if from_clause is None or not from_clause.joins:
        return None
    removed = from_clause.joins.pop()
    source = removed.source
    if not isinstance(source, TableRef):
        return None
    removed_binding = (source.alias or source.name).lower()
    kept = from_clause.sources()
    if not kept or not isinstance(kept[0], TableRef):
        return None
    kept_table = kept[0].name.lower()
    referenced = False
    for node in walk(mutated):
        if isinstance(node, ColumnRef) and node.table:
            if node.table.lower() == removed_binding:
                node.table = None
                referenced = True
            elif len(from_clause.sources()) == 1:
                # Single remaining table: drop stale aliases for cleanliness.
                node.table = None
    if not referenced:
        return None
    # Keep only references that are actually broken (column not in the
    # remaining table) interesting; if everything resolved, still broken
    # enough — the ON condition's column is gone.
    del kept_table
    return mutated


def _function_hallucination(query: Query, schema: SchemaInfo, rng) -> Optional[Query]:
    """Wrap a text projection in CONCAT (unsupported in SQLite)."""
    mutated = clone(query)
    for item in mutated.core.items:
        if isinstance(item.expr, ColumnRef):
            mutated.core.items[mutated.core.items.index(item)] = SelectItem(
                expr=FuncCall(
                    name="CONCAT",
                    args=[item.expr, Literal.string(" "), clone(item.expr)],
                ),
                alias=item.alias,
            )
            return mutated
    return None


def _schema_hallucination(query: Query, schema: SchemaInfo, rng) -> Optional[Query]:
    """Rename a referenced column to a plausible non-existent one."""
    mutated = clone(query)
    for node in walk(mutated):
        if isinstance(node, ColumnRef) and not node.column.endswith("_id"):
            fabricated = f"{node.column}_name"
            if not any(
                schema.has_column(t, fabricated) for t in schema.table_names()
            ):
                node.column = fabricated
                return mutated
    return None


def _aggregation_hallucination(query: Query, schema: SchemaInfo, rng) -> Optional[Query]:
    """Give COUNT(DISTINCT ...) a second argument."""
    mutated = clone(query)
    for node in walk(mutated):
        if (
            isinstance(node, Agg)
            and node.func == "COUNT"
            and node.distinct
            and len(node.args) == 1
            and isinstance(node.args[0], ColumnRef)
        ):
            table = _owning_table(mutated, node.args[0], schema)
            if table is None:
                continue
            extra = [
                c.name
                for c in schema.columns_of(table)
                if c.name.lower() != node.args[0].column.lower()
            ]
            if not extra:
                continue
            second = extra[int(rng.integers(0, len(extra)))]
            node.args.append(ColumnRef(column=second, table=node.args[0].table))
            return mutated
    return None


def _owning_table(query: Query, ref: ColumnRef, schema: SchemaInfo) -> Optional[str]:
    aliases = _aliased_tables(query)
    if ref.table:
        return aliases.get(ref.table.lower())
    for table in aliases.values():
        if schema.has_column(table, ref.column):
            return table
    return None


_INJECTORS = {
    "table_column_mismatch": _table_column_mismatch,
    "column_ambiguity": _column_ambiguity,
    "missing_table": _missing_table,
    "function_hallucination": _function_hallucination,
    "schema_hallucination": _schema_hallucination,
    "aggregation_hallucination": _aggregation_hallucination,
}
