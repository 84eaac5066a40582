"""Tests for prompt rendering and parsing round-trips."""

import pytest

from repro.llm.promptfmt import (
    build_prompt,
    parse_prompt,
    render_demo,
    render_schema,
)
from repro.spider.domains import domain_by_name


@pytest.fixture(scope="module")
def soccer_db():
    return domain_by_name("soccer").instantiate(0, seed=3)


class TestRenderSchema:
    def test_contains_tables_and_columns(self, soccer_db):
        text = render_schema(soccer_db)
        assert "Table team" in text
        assert "Table player" in text
        assert "name:text" in text

    def test_primary_key_marked(self, soccer_db):
        assert "id:integer*" in render_schema(soccer_db)

    def test_foreign_keys_listed(self, soccer_db):
        assert "player.team_id = team.id" in render_schema(soccer_db)

    def test_values_included(self, soccer_db):
        text = render_schema(soccer_db)
        assert "[" in text and "|" in text

    def test_pruned_schema_respected(self, soccer_db):
        pruned = soccer_db.schema.subset({"team": ["name"]})
        text = render_schema(soccer_db, pruned)
        assert "Table team" in text
        assert "Table player" not in text


class TestRoundTrip:
    def test_parse_schema_back(self, soccer_db):
        text = render_schema(soccer_db)
        prompt = build_prompt(text, "How many players are there?")
        parsed = parse_prompt(prompt)
        assert parsed.task_question == "How many players are there?"
        assert set(parsed.task_schema.table_names()) == {"team", "player"}
        assert parsed.task_schema.fks == [("player", "team_id", "team", "id")]

    def test_column_types_and_values_parse(self, soccer_db):
        text = render_schema(soccer_db)
        parsed = parse_prompt(build_prompt(text, "q"))
        cols = {c.name: c for c in parsed.task_schema.columns_of("player")}
        assert cols["goals"].col_type == "integer"
        assert cols["id"].is_primary
        assert cols["name"].values  # representative values survive

    def test_demos_parse_back(self, soccer_db):
        schema_text = render_schema(soccer_db)
        demo = render_demo(schema_text, "Who?", "SELECT name FROM player")
        prompt = build_prompt(schema_text, "How many?", demos=[demo])
        parsed = parse_prompt(prompt)
        assert len(parsed.demos) == 1
        assert parsed.demos[0].sql == "SELECT name FROM player"
        assert parsed.demos[0].question == "Who?"

    def test_instructions_parse_back(self, soccer_db):
        prompt = build_prompt(
            render_schema(soccer_db), "q", instructions="Only use columns."
        )
        assert parse_prompt(prompt).instructions == "Only use columns."

    def test_string_values_with_spaces(self, soccer_db):
        parsed = parse_prompt(build_prompt(render_schema(soccer_db), "q"))
        values = []
        for col in parsed.task_schema.columns_of("player"):
            values.extend(v for v in col.values if isinstance(v, str))
        assert any(" " in v for v in values)  # person names round-trip


class TestLazyDemoSchema:
    """A demonstration's schema is parsed on first access; it must equal
    what an eager parse of the same lines gives."""

    def test_equals_eager_parse(self, soccer_db):
        for schema in (
            soccer_db.schema,
            soccer_db.schema.subset({"team": ["name", "city"]}),
        ):
            text = render_schema(soccer_db, schema)
            demo = render_demo(text, "Who?", "SELECT name FROM team")
            parsed = parse_prompt(build_prompt(text, "q", demos=[demo, demo]))
            eager = parsed.task_schema
            first, second = parsed.demos
            assert first.schema == eager
            assert first.schema is first.schema  # parsed once
            assert second.schema == eager and second.schema is not eager

    def test_blocks_kept_as_before(self, soccer_db):
        table_only = "### Example\nTable team (id:integer*, name:text)"
        question_only = "### Example\nQuestion: Who?\nSQL: SELECT 1"
        empty = "### Example\nDatabase: soccer\nTable team"  # no table parses
        parsed = parse_prompt(
            "\n\n".join([table_only, question_only, empty, "### Task\nQuestion: q\nSQL:"])
        )
        assert [d.question for d in parsed.demos] == ["", "Who?"]
        assert parsed.demos[0].schema.table_names() == ["team"]
        assert parsed.demos[1].schema.tables == {}
