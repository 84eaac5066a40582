"""Execution Match (EX) — result-set equivalence on the actual database.

Gold and prediction both execute; results compare as multisets of rows,
or as ordered sequences when the gold query has a top-level ORDER BY.
Floats are compared with rounding so SQLite's AVG noise does not flip
verdicts.
"""

from __future__ import annotations

from repro.schema.sqlite_backend import ExecutionResult, SQLiteExecutor
from repro.sqlkit.errors import SQLError
from repro.sqlkit.parser import parse_sql

_FLOAT_DIGITS = 4


class GoldExecutionError(ValueError):
    """The *gold* SQL failed to execute — an evaluation-infrastructure
    problem, not a model error.

    The harness records such tasks as evaluation-error outcomes and keeps
    going; a ValueError subclass so pre-existing callers still catch it.
    ``info`` carries the executor's normalized
    :class:`~repro.schema.errorinfo.ErrorInfo` when available.
    """

    def __init__(self, message: str, *, info=None):
        super().__init__(message)
        self.info = info


def execution_match(
    executor: SQLiteExecutor,
    db_key: str,
    gold_sql: str,
    predicted_sql: str,
) -> bool:
    """True when the prediction's result matches the gold's."""
    gold_result = executor.execute(db_key, gold_sql)
    if not gold_result.ok:
        raise GoldExecutionError(
            f"gold SQL failed to execute: {gold_result.error}",
            info=gold_result.info,
        )
    pred_result = executor.execute(db_key, predicted_sql)
    if not pred_result.ok:
        return False
    ordered = _gold_is_ordered(gold_sql)
    return results_equal(gold_result, pred_result, ordered=ordered)


def results_equal(
    gold: ExecutionResult, pred: ExecutionResult, ordered: bool = False
) -> bool:
    """Compare two execution results (multiset or ordered)."""
    assert gold.rows is not None and pred.rows is not None
    gold_rows = [_normalize_row(r) for r in gold.rows]
    pred_rows = [_normalize_row(r) for r in pred.rows]
    if len(gold_rows) != len(pred_rows):
        return False
    if gold_rows and len(gold_rows[0]) != len(pred_rows[0]):
        return False
    if ordered:
        return gold_rows == pred_rows
    return sorted(gold_rows, key=_key) == sorted(pred_rows, key=_key)


def _normalize_row(row: tuple) -> tuple:
    return tuple(
        round(v, _FLOAT_DIGITS) if isinstance(v, float) else v for v in row
    )


def _key(row: tuple):
    return tuple((v is None, type(v).__name__, str(v)) for v in row)


def shape_implies_rows(sql: str):
    """The single FROM table of a query whose shape guarantees rows, or None.

    The execution-feedback repair loop treats an empty result as *suspect*
    only when the query cannot legitimately be empty: a plain projection
    over exactly one table with no WHERE/HAVING/GROUP BY, no joins, no
    LIMIT, and no compound — such a query returns one row per table row,
    so an empty result on a non-empty table means the model selected from
    the wrong place.  Returns the table name to let the caller check the
    table actually has rows; any richer shape returns None (never
    suspect), which keeps the trigger free of false positives.
    """
    try:
        query = parse_sql(sql)
    except SQLError:
        return None
    if query.compounds:
        return None
    core = query.core
    if (
        core.where is not None
        or core.having is not None
        or core.group_by
        or core.limit is not None
        or core.from_clause is None
        or core.from_clause.joins
    ):
        return None
    from repro.sqlkit.ast_nodes import Subquery, TableRef, walk

    if any(isinstance(node, Subquery) for node in walk(query)):
        return None
    source = core.from_clause.first
    if not isinstance(source, TableRef):
        return None
    return source.name


def _gold_is_ordered(gold_sql: str) -> bool:
    try:
        query = parse_sql(gold_sql)
    except SQLError:
        return False
    # Only the final core's ORDER BY orders a compound query's output.
    core = query.compounds[-1][1] if query.compounds else query.core
    final = core.core if hasattr(core, "core") else core
    return bool(final.order_by)
