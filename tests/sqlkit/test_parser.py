"""Unit tests for the SQL parser and AST shapes."""

import pytest

from repro.sqlkit import (
    Agg,
    BetweenExpr,
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    FuncCall,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    Query,
    SQLParseError,
    Star,
    Subquery,
    SubquerySource,
    TableRef,
    ValueList,
    parse_sql,
)


class TestSelectCore:
    def test_simple_select(self):
        q = parse_sql("SELECT name FROM singer")
        assert isinstance(q, Query)
        core = q.core
        assert len(core.items) == 1
        assert isinstance(core.items[0].expr, ColumnRef)
        assert core.items[0].expr.column == "name"
        assert core.from_clause.first == TableRef(name="singer")

    def test_distinct_flag(self):
        assert parse_sql("SELECT DISTINCT a FROM t").core.distinct
        assert not parse_sql("SELECT a FROM t").core.distinct

    def test_multiple_projections(self):
        core = parse_sql("SELECT a, b, c FROM t").core
        assert [i.expr.column for i in core.items] == ["a", "b", "c"]

    def test_star_projection(self):
        core = parse_sql("SELECT * FROM t").core
        assert isinstance(core.items[0].expr, Star)

    def test_qualified_star(self):
        core = parse_sql("SELECT T1.* FROM t AS T1").core
        assert core.items[0].expr == Star(table="T1")

    def test_select_item_alias(self):
        core = parse_sql("SELECT COUNT(*) AS n FROM t").core
        assert core.items[0].alias == "n"

    def test_limit(self):
        assert parse_sql("SELECT a FROM t LIMIT 5").core.limit == 5

    def test_fetch_first_parses_to_limit(self):
        query = parse_sql("SELECT a FROM t FETCH FIRST 4 ROWS ONLY")
        assert query.core.limit == 4
        assert query == parse_sql("SELECT a FROM t LIMIT 4")

    def test_order_by_directions(self):
        core = parse_sql("SELECT a FROM t ORDER BY a DESC, b").core
        assert core.order_by[0].direction == "DESC"
        assert core.order_by[1].direction == "ASC"

    def test_group_by_and_having(self):
        core = parse_sql(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
        ).core
        assert len(core.group_by) == 1
        assert isinstance(core.having, Comparison)
        assert isinstance(core.having.left, Agg)


class TestFromClause:
    def test_join_with_on(self):
        core = parse_sql(
            "SELECT * FROM a AS T1 JOIN b AS T2 ON T1.x = T2.y"
        ).core
        assert len(core.from_clause.joins) == 1
        join = core.from_clause.joins[0]
        assert join.kind == "JOIN"
        assert isinstance(join.on, Comparison)

    def test_three_way_join(self):
        core = parse_sql(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        ).core
        assert len(core.from_clause.sources()) == 3

    def test_left_join(self):
        core = parse_sql("SELECT * FROM a LEFT JOIN b ON a.x = b.x").core
        assert core.from_clause.joins[0].kind == "LEFT JOIN"

    def test_inner_join_normalized(self):
        core = parse_sql("SELECT * FROM a INNER JOIN b ON a.x = b.x").core
        assert core.from_clause.joins[0].kind == "JOIN"

    def test_comma_join(self):
        core = parse_sql("SELECT * FROM a, b WHERE a.x = b.x").core
        assert len(core.from_clause.sources()) == 2

    def test_from_subquery(self):
        core = parse_sql("SELECT * FROM (SELECT a FROM t) AS sub").core
        assert isinstance(core.from_clause.first, SubquerySource)
        assert core.from_clause.first.alias == "sub"

    def test_table_alias_without_as(self):
        core = parse_sql("SELECT * FROM singer s").core
        assert core.from_clause.first.alias == "s"


class TestConditions:
    def test_comparison_ops(self):
        for op in ["<", "<=", ">", ">=", "=", "!="]:
            cond = parse_sql(f"SELECT a FROM t WHERE a {op} 1").core.where
            assert isinstance(cond, Comparison)
            assert cond.op == op

    def test_and_or_structure(self):
        cond = parse_sql(
            "SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3"
        ).core.where
        assert isinstance(cond, BoolOp)
        assert cond.op == "OR"
        assert isinstance(cond.terms[0], BoolOp)
        assert cond.terms[0].op == "AND"

    def test_in_subquery(self):
        cond = parse_sql(
            "SELECT a FROM t WHERE a IN (SELECT b FROM u)"
        ).core.where
        assert isinstance(cond, InExpr)
        assert not cond.negated
        assert isinstance(cond.source, Subquery)

    def test_not_in_value_list(self):
        cond = parse_sql("SELECT a FROM t WHERE a NOT IN (1, 2, 3)").core.where
        assert isinstance(cond, InExpr)
        assert cond.negated
        assert isinstance(cond.source, ValueList)
        assert len(cond.source.values) == 3

    def test_like_and_not_like(self):
        cond = parse_sql("SELECT a FROM t WHERE a LIKE '%x%'").core.where
        assert isinstance(cond, LikeExpr)
        cond = parse_sql("SELECT a FROM t WHERE a NOT LIKE '%x%'").core.where
        assert cond.negated

    def test_between(self):
        cond = parse_sql("SELECT a FROM t WHERE a BETWEEN 1 AND 5").core.where
        assert isinstance(cond, BetweenExpr)
        assert cond.low.value == 1
        assert cond.high.value == 5

    def test_is_null_and_is_not_null(self):
        cond = parse_sql("SELECT a FROM t WHERE a IS NULL").core.where
        assert isinstance(cond, IsNullExpr) and not cond.negated
        cond = parse_sql("SELECT a FROM t WHERE a IS NOT NULL").core.where
        assert cond.negated

    def test_leading_not_flips_comparison(self):
        cond = parse_sql("SELECT a FROM t WHERE NOT a = 1").core.where
        assert isinstance(cond, Comparison)
        assert cond.op == "!="

    def test_parenthesized_condition(self):
        cond = parse_sql(
            "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3"
        ).core.where
        assert isinstance(cond, BoolOp)
        assert cond.op == "AND"

    def test_scalar_subquery_comparison(self):
        cond = parse_sql(
            "SELECT a FROM t WHERE a > (SELECT AVG(a) FROM t)"
        ).core.where
        assert isinstance(cond.right, Subquery)


class TestExpressions:
    def test_aggregate_with_distinct(self):
        expr = parse_sql("SELECT COUNT(DISTINCT a) FROM t").core.items[0].expr
        assert isinstance(expr, Agg)
        assert expr.distinct
        assert expr.func == "COUNT"

    def test_count_star(self):
        expr = parse_sql("SELECT COUNT(*) FROM t").core.items[0].expr
        assert isinstance(expr.args[0], Star)

    def test_multi_arg_aggregate_parses(self):
        # Aggregation-hallucination shape (Table 2) must be parseable so the
        # adaption module can repair it.
        expr = parse_sql("SELECT COUNT(DISTINCT a, b) FROM t").core.items[0].expr
        assert isinstance(expr, Agg)
        assert len(expr.args) == 2

    def test_concat_function_call(self):
        # Function-hallucination shape (Table 2).
        expr = parse_sql("SELECT CONCAT(a, ' ', b) FROM t").core.items[0].expr
        assert isinstance(expr, FuncCall)
        assert expr.name == "CONCAT"

    def test_arithmetic_precedence(self):
        expr = parse_sql("SELECT a + b * c FROM t").core.items[0].expr
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

    def test_number_literal_types(self):
        items = parse_sql("SELECT 1, 2.5 FROM t").core.items
        assert items[0].expr == Literal.number(1)
        assert items[1].expr == Literal.number(2.5)


class TestCompounds:
    def test_except_compound(self):
        q = parse_sql("SELECT a FROM t EXCEPT SELECT a FROM u")
        assert len(q.compounds) == 1
        assert q.compounds[0][0] == "EXCEPT"

    def test_union_and_intersect(self):
        q = parse_sql(
            "SELECT a FROM t UNION SELECT a FROM u INTERSECT SELECT a FROM v"
        )
        ops = [op for op, _ in q.compounds]
        assert ops == ["UNION", "INTERSECT"]

    def test_all_cores(self):
        q = parse_sql("SELECT a FROM t EXCEPT SELECT a FROM u")
        assert len(q.all_cores()) == 2


class TestErrors:
    def test_trailing_garbage_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT a FROM t extra garbage ,")

    def test_missing_from_target_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT a FROM")

    def test_empty_input_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("")

    def test_limit_requires_number(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT a FROM t LIMIT b")

    def test_trailing_semicolon_allowed(self):
        parse_sql("SELECT a FROM t;")

    def test_keyword_as_column_name(self):
        core = parse_sql("SELECT t.count FROM t").core
        assert core.items[0].expr.column == "COUNT"
