"""Unit tests for the schema-aware SQL semantic analyzer.

The soccer domain schema: ``team(id, name, city, founded)`` and
``player(id, team_id, name, position, goals, age)`` with
``player.team_id -> team.id``.  ``name`` is deliberately ambiguous
between the two tables.
"""

import pytest

from repro.analysis import (
    FATAL_RULES,
    RULES,
    SQLAnalyzer,
    analyze_sql,
    fatal_diagnostics,
)
from repro.spider.domains import domain_by_name


@pytest.fixture(scope="module")
def schema():
    return domain_by_name("soccer").instantiate(0, seed=3).schema


@pytest.fixture(scope="module")
def analyzer(schema):
    return SQLAnalyzer(schema)


def rules_of(analyzer, sql):
    return sorted({d.rule for d in analyzer.analyze(sql)})


class TestCleanQueries:
    CLEAN = [
        "SELECT name FROM team",
        "SELECT T1.name FROM player AS T1 JOIN team AS T2 "
        "ON T1.team_id = T2.id WHERE T2.city = 'Rome'",
        "SELECT city, COUNT(*) FROM team GROUP BY city HAVING COUNT(*) > 1",
        "SELECT name FROM player WHERE goals > "
        "(SELECT AVG(goals) FROM player)",
        "SELECT name FROM team ORDER BY founded DESC LIMIT 3",
        "SELECT COUNT(*) FROM (SELECT DISTINCT city FROM team) AS T1",
        "SELECT T2.name, COUNT(*) FROM player AS T1 JOIN team AS T2 "
        "ON T1.team_id = T2.id GROUP BY T2.id",
    ]

    @pytest.mark.parametrize("sql", CLEAN)
    def test_no_diagnostics(self, analyzer, sql):
        assert analyzer.analyze(sql) == []

    @pytest.mark.parametrize("sql", CLEAN)
    def test_not_doomed(self, analyzer, sql):
        assert not fatal_diagnostics(analyzer.analyze(sql))


class TestErrorRules:
    CASES = [
        ("SELECT name FROM ghost", "sql.unknown-table"),
        ("SELECT T9.name FROM team AS T1", "sql.unknown-alias"),
        ("SELECT salary FROM player", "sql.unknown-column"),
        (
            "SELECT T2.goals FROM player AS T1 JOIN team AS T2 "
            "ON T1.team_id = T2.id",
            "sql.table-column-mismatch",
        ),
        (
            "SELECT name FROM player AS T1 JOIN team AS T2 "
            "ON T1.team_id = T2.id",
            "sql.ambiguous-column",
        ),
        ("SELECT city FROM player", "sql.missing-table"),
        ("SELECT CONCAT(name, city) FROM team", "sql.unknown-function"),
        ("SELECT COUNT(name, city) FROM team", "sql.aggregate-arity"),
        ("SELECT name FROM player WHERE COUNT(*) > 2", "sql.aggregate-in-where"),
        ("SELECT name FROM team HAVING founded > 1900",
         "sql.having-without-group-by"),
        (
            "SELECT name FROM team UNION SELECT name, city FROM team",
            "sql.set-arity",
        ),
        ("SELECT name AS n FROM team ORDER BY m", "sql.invalid-order-alias"),
    ]

    @pytest.mark.parametrize("sql,rule", CASES)
    def test_rule_fires(self, analyzer, sql, rule):
        assert rule in rules_of(analyzer, sql), (sql, analyzer.analyze(sql))

    @pytest.mark.parametrize("sql,rule", CASES)
    def test_doomed(self, analyzer, sql, rule):
        assert fatal_diagnostics(analyzer.analyze(sql)), sql

    def test_parse_error_rule(self, analyzer):
        diags = analyzer.analyze("SELECT FROM WHERE")
        assert [d.rule for d in diags] == ["sql.parse-error"]
        # Unparseable is not statically *doomed* — the executor decides.
        assert not fatal_diagnostics(diags)


class TestWarningRules:
    def test_ungrouped_bare_column_is_warning(self, analyzer):
        diags = analyzer.analyze("SELECT name, COUNT(*) FROM player")
        assert [(d.rule, d.severity) for d in diags] == [
            ("sql.ungrouped-column", "warning")
        ]
        assert not fatal_diagnostics(diags)

    def test_group_by_primary_key_is_clean(self, analyzer):
        # The Spider idiom: project a column functionally dependent on the
        # grouped primary key.
        sql = ("SELECT T2.name, COUNT(*) FROM player AS T1 JOIN team AS T2 "
               "ON T1.team_id = T2.id GROUP BY T2.id")
        assert analyzer.analyze(sql) == []

    def test_type_mismatch_is_warning(self, analyzer):
        diags = analyzer.analyze("SELECT name FROM player WHERE goals = 'abc'")
        assert [(d.rule, d.severity) for d in diags] == [
            ("sql.type-mismatch", "warning")
        ]

    def test_scalar_max_two_args_is_warning_not_fatal(self, analyzer):
        # MAX(a, b) without DISTINCT is SQLite's legal scalar form.
        sql = "SELECT MAX(goals, age) FROM player"
        diags = analyzer.analyze(sql)
        assert [d.rule for d in diags] == ["sql.aggregate-arity"]
        assert not fatal_diagnostics(diags)


class TestErrorClassMapping:
    @pytest.mark.parametrize("sql,error_class", [
        (
            "SELECT T2.goals FROM player AS T1 JOIN team AS T2 "
            "ON T1.team_id = T2.id",
            "table_column_mismatch",
        ),
        (
            "SELECT name FROM player AS T1 JOIN team AS T2 "
            "ON T1.team_id = T2.id",
            "column_ambiguity",
        ),
        ("SELECT city FROM player", "missing_table"),
        ("SELECT CONCAT(name, city) FROM team", "function_hallucination"),
        ("SELECT salary FROM player", "schema_hallucination"),
        ("SELECT COUNT(name, city) FROM team", "aggregation_hallucination"),
    ])
    def test_all_six_classes_map(self, analyzer, sql, error_class):
        classes = {d.error_class for d in analyzer.analyze(sql)}
        assert error_class in classes, (sql, classes)


class TestSubqueriesAndScoping:
    def test_correlated_subquery_sees_outer_alias(self, analyzer):
        sql = ("SELECT name FROM team AS T1 WHERE T1.id IN "
               "(SELECT team_id FROM player WHERE player.team_id = T1.id)")
        assert analyzer.analyze(sql) == []

    def test_derived_table_is_opaque_outside(self, analyzer):
        # Columns of a derived table can't be schema-checked: no reports.
        sql = ("SELECT T1.avg_goals FROM "
               "(SELECT AVG(goals) AS avg_goals FROM player) AS T1")
        assert analyzer.analyze(sql) == []

    def test_derived_table_body_still_checked(self, analyzer):
        # ... but the subquery body itself is.
        sql = ("SELECT COUNT(*) FROM "
               "(SELECT DISTINCT salary FROM player) AS T1")
        assert "sql.unknown-column" in rules_of(analyzer, sql)

    def test_order_by_select_alias_is_clean(self, analyzer):
        sql = ("SELECT city, COUNT(*) AS n FROM team GROUP BY city "
               "ORDER BY n DESC")
        assert analyzer.analyze(sql) == []


class TestModuleSurface:
    def test_analyze_sql_convenience(self, schema):
        assert analyze_sql("SELECT name FROM team", schema) == []

    def test_every_rule_documented(self):
        for rule_id, description in RULES.items():
            assert rule_id.startswith("sql."), rule_id
            assert description

    def test_fatal_rules_subset(self):
        assert FATAL_RULES <= set(RULES)
        assert "sql.parse-error" not in FATAL_RULES
        assert "sql.ungrouped-column" not in FATAL_RULES
        assert "sql.type-mismatch" not in FATAL_RULES
