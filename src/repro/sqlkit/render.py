"""Render an AST back to canonical Spider-style SQL text.

The renderer is the inverse of :mod:`repro.sqlkit.parser`:
``parse_sql(render_sql(q))`` round-trips structurally.  Output conventions
follow Spider's gold queries: upper-case keywords, ``AS`` for aliases,
single-quoted string literals, and ``LIMIT n`` for row limiting (the
parser's ``FETCH FIRST n ROWS ONLY`` form renders as ``LIMIT n``).
The whole evaluation pipeline depends on this output staying stable;
``tests/sqlkit/test_render.py`` pins the rendering of the gold corpus.
"""

from __future__ import annotations

from repro.sqlkit.ast_nodes import (
    Agg,
    BetweenExpr,
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    FromClause,
    FuncCall,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    Node,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    Star,
    Subquery,
    SubquerySource,
    TableRef,
    ValueList,
)


def render_sql(node: Node) -> str:
    """Render any AST node to SQL text."""
    return _render(node)


def _render(node: Node) -> str:
    renderer = _RENDERERS.get(type(node))
    if renderer is None:
        raise TypeError(f"cannot render node of type {type(node).__name__}")
    return renderer(node)


def _render_query(q: Query) -> str:
    parts = [_render_core(q.core)]
    for op, rhs in q.compounds:
        parts.append(op)
        parts.append(_render(rhs) if isinstance(rhs, Query) else _render_core(rhs))
    return " ".join(parts)


def _render_core(core: SelectCore) -> str:
    parts = ["SELECT"]
    if core.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_select_item(i) for i in core.items))
    if core.from_clause is not None:
        parts.append("FROM")
        parts.append(_render_from(core.from_clause))
    if core.where is not None:
        parts.append("WHERE")
        parts.append(_render(core.where))
    if core.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(_render(g) for g in core.group_by))
    if core.having is not None:
        parts.append("HAVING")
        parts.append(_render(core.having))
    if core.order_by:
        parts.append("ORDER BY")
        parts.append(", ".join(_render_order_item(o) for o in core.order_by))
    if core.limit is not None:
        parts.append(f"LIMIT {core.limit}")
    return " ".join(parts)


def _render_select_item(item: SelectItem) -> str:
    text = _render(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _render_order_item(item: OrderItem) -> str:
    text = _render(item.expr)
    if item.direction != "ASC":
        text += f" {item.direction}"
    return text


def _render_from(clause: FromClause) -> str:
    parts = [_render(clause.first)]
    for join in clause.joins:
        parts.append(join.kind)
        parts.append(_render(join.source))
        if join.on is not None:
            parts.append("ON")
            parts.append(_render(join.on))
    return " ".join(parts)


def _render_table_ref(ref: TableRef) -> str:
    return f"{ref.name} AS {ref.alias}" if ref.alias else ref.name


def _render_subquery_source(src: SubquerySource) -> str:
    inner = _render_query(src.query)
    return f"({inner}) AS {src.alias}" if src.alias else f"({inner})"


def _render_column_ref(ref: ColumnRef) -> str:
    return f"{ref.table}.{ref.column}" if ref.table else ref.column


def _render_star(star: Star) -> str:
    return f"{star.table}.*" if star.table else "*"


def _render_literal(lit: Literal) -> str:
    if lit.kind == "null" or lit.value is None:
        return "NULL"
    if lit.kind == "number":
        value = lit.value
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)
    escaped = str(lit.value).replace("'", "''")
    return f"'{escaped}'"


def _render_agg(agg: Agg) -> str:
    inner = ", ".join(_render(a) for a in agg.args) if agg.args else "*"
    prefix = "DISTINCT " if agg.distinct else ""
    return f"{agg.func}({prefix}{inner})"


def _render_func_call(fn: FuncCall) -> str:
    return f"{fn.name}({', '.join(_render(a) for a in fn.args)})"


def _render_binary_op(op: BinaryOp) -> str:
    return f"{_render(op.left)} {op.op} {_render(op.right)}"


def _render_comparison(cmp: Comparison) -> str:
    return f"{_render(cmp.left)} {cmp.op} {_render(cmp.right)}"


def _render_in(expr: InExpr) -> str:
    kw = "NOT IN" if expr.negated else "IN"
    if isinstance(expr.source, Subquery):
        return f"{_render(expr.left)} {kw} ({_render_query(expr.source.query)})"
    return f"{_render(expr.left)} {kw} {_render(expr.source)}"


def _render_value_list(vl: ValueList) -> str:
    return "(" + ", ".join(_render(v) for v in vl.values) + ")"


def _render_like(expr: LikeExpr) -> str:
    kw = "NOT LIKE" if expr.negated else "LIKE"
    return f"{_render(expr.left)} {kw} {_render(expr.pattern)}"


def _render_between(expr: BetweenExpr) -> str:
    kw = "NOT BETWEEN" if expr.negated else "BETWEEN"
    return (
        f"{_render(expr.left)} {kw} "
        f"{_render(expr.low)} AND {_render(expr.high)}"
    )


def _render_is_null(expr: IsNullExpr) -> str:
    kw = "IS NOT NULL" if expr.negated else "IS NULL"
    return f"{_render(expr.left)} {kw}"


def _render_bool_op(expr: BoolOp) -> str:
    rendered = []
    for term in expr.terms:
        text = _render(term)
        # Parenthesize nested OR inside AND to preserve precedence.
        if isinstance(term, BoolOp) and term.op != expr.op:
            text = f"({text})"
        rendered.append(text)
    return f" {expr.op} ".join(rendered)


def _render_subquery(sub: Subquery) -> str:
    return f"({_render_query(sub.query)})"


_RENDERERS = {
    Query: _render_query,
    SelectCore: _render_core,
    SelectItem: _render_select_item,
    OrderItem: _render_order_item,
    FromClause: _render_from,
    TableRef: _render_table_ref,
    SubquerySource: _render_subquery_source,
    ColumnRef: _render_column_ref,
    Star: _render_star,
    Literal: _render_literal,
    Agg: _render_agg,
    FuncCall: _render_func_call,
    BinaryOp: _render_binary_op,
    Comparison: _render_comparison,
    InExpr: _render_in,
    ValueList: _render_value_list,
    LikeExpr: _render_like,
    BetweenExpr: _render_between,
    IsNullExpr: _render_is_null,
    BoolOp: _render_bool_op,
    Subquery: _render_subquery,
}
