"""Round-trip and formatting tests for the SQL renderer."""

import hashlib

import pytest

from repro.sqlkit import parse_sql, render_sql

# sha256 of "\n".join(render_sql(parse_sql(ex.sql))) over the train + dev
# examples of the seed-7 small benchmark (conftest.py).
CORPUS_RENDER_SHA256 = (
    "e47321fda5d0c9733ab87bd95bddc50de584ef0251687c3d9a735bf1989c211f"
)

ROUND_TRIP_QUERIES = [
    "SELECT name FROM singer",
    "SELECT DISTINCT a, b FROM t",
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(DISTINCT a) FROM t",
    "SELECT a FROM t WHERE b = 'x' AND c > 3",
    "SELECT a FROM t WHERE b = 1 OR c = 2",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 5",
    "SELECT a FROM t WHERE a NOT LIKE '%x%'",
    "SELECT a FROM t WHERE a IN (1, 2, 3)",
    "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)",
    "SELECT a FROM t WHERE a IS NOT NULL",
    "SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.x = T2.y",
    "SELECT a FROM t LEFT JOIN u ON t.x = u.y",
    "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) >= 2",
    "SELECT a FROM t ORDER BY a DESC LIMIT 3",
    "SELECT a FROM t ORDER BY a DESC, b",
    "SELECT a FROM t EXCEPT SELECT a FROM u",
    "SELECT a FROM t UNION SELECT a FROM u",
    "SELECT a FROM t INTERSECT SELECT a FROM u",
    "SELECT a FROM (SELECT a FROM t) AS sub",
    "SELECT a + b * c FROM t",
    "SELECT MAX(a) - MIN(a) FROM t",
    "SELECT a FROM t WHERE x > (SELECT AVG(x) FROM t)",
    "SELECT CONCAT(a, ' ', b) FROM t",
    "SELECT COUNT(DISTINCT a, b) FROM t",
    "SELECT COUNT(*) AS n FROM t",
]


@pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
def test_render_is_fixpoint(sql):
    """render(parse(sql)) must itself re-parse to identical text."""
    once = render_sql(parse_sql(sql))
    twice = render_sql(parse_sql(once))
    assert once == twice


@pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
def test_canonical_queries_render_verbatim(sql):
    """Queries already in canonical form are untouched."""
    assert render_sql(parse_sql(sql)) == sql


class TestFormattingDetails:
    def test_keywords_uppercased(self):
        assert render_sql(parse_sql("select a from t where b = 1")) == (
            "SELECT a FROM t WHERE b = 1"
        )

    def test_string_quotes_escaped(self):
        rendered = render_sql(parse_sql("SELECT a FROM t WHERE b = 'it''s'"))
        assert "'it''s'" in rendered

    def test_float_that_is_integer_renders_as_int(self):
        assert render_sql(parse_sql("SELECT a FROM t LIMIT 3")).endswith("LIMIT 3")

    def test_nested_or_parenthesized_inside_and(self):
        rendered = render_sql(
            parse_sql("SELECT a FROM t WHERE (b = 1 OR c = 2) AND d = 3")
        )
        assert rendered == "SELECT a FROM t WHERE (b = 1 OR c = 2) AND d = 3"

    def test_null_literal(self):
        assert render_sql(parse_sql("SELECT NULL FROM t")) == "SELECT NULL FROM t"

    def test_fetch_first_renders_as_limit(self):
        sql = "SELECT a FROM t FETCH FIRST 4 ROWS ONLY"
        assert render_sql(parse_sql(sql)) == "SELECT a FROM t LIMIT 4"

    def test_inequality_normalized(self):
        assert render_sql(parse_sql("SELECT a FROM t WHERE b <> 1")).endswith("b != 1")


class TestCorpusRendering:
    def test_corpus_rendering_hash_pinned(self, small_benchmark):
        """The rendering of the whole gold corpus is pinned: any renderer
        change that moves this hash changed the rendered surface."""
        rendered = [
            render_sql(parse_sql(ex.sql))
            for dataset in (small_benchmark.train, small_benchmark.dev)
            for ex in dataset
        ]
        digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
        assert digest == CORPUS_RENDER_SHA256
