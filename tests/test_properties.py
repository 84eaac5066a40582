"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval import em_signature, exact_set_match, results_equal
from repro.llm.tokenizer import count_tokens
from repro.schema.sqlite_backend import ExecutionResult
from repro.sqlkit import parse_sql, render_sql
from repro.sqlkit.abstraction import abstract_tokens
from repro.sqlkit.ast_nodes import (
    Agg,
    ColumnRef,
    Comparison,
    FromClause,
    Literal,
    Query,
    SelectCore,
    SelectItem,
    Star,
    TableRef,
)
from repro.sqlkit.skeleton import PLACEHOLDER, skeleton_tokens
from repro.utils.text import edit_distance, pluralize, singularize

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

identifiers = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=8
).filter(lambda s: s not in {"select", "from", "where", "and", "or", "not",
                             "in", "like", "between", "group", "order", "by",
                             "having", "limit", "as", "on", "join", "is",
                             "null", "asc", "desc", "union", "except",
                             "intersect", "distinct", "count", "max", "min",
                             "sum", "avg", "left", "inner", "outer", "concat",
                             "fetch", "first", "rows", "only"})

column_refs = st.builds(ColumnRef, column=identifiers)

literals = st.one_of(
    st.integers(min_value=-999, max_value=9999).map(Literal.number),
    st.text(alphabet=string.ascii_letters + " ", max_size=10).map(
        Literal.string
    ),
)

value_exprs = st.one_of(
    column_refs,
    literals,
    st.builds(
        Agg,
        func=st.sampled_from(["COUNT", "MAX", "MIN", "SUM", "AVG"]),
        args=st.lists(column_refs, min_size=1, max_size=1),
        distinct=st.booleans(),
    ),
)

conditions = st.builds(
    Comparison,
    op=st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
    left=column_refs,
    right=literals,
)


@st.composite
def select_cores(draw):
    items = draw(
        st.lists(
            st.builds(SelectItem, expr=value_exprs), min_size=1, max_size=3
        )
    )
    core = SelectCore(
        items=items,
        distinct=draw(st.booleans()),
        from_clause=FromClause(first=TableRef(name=draw(identifiers))),
        where=draw(st.one_of(st.none(), conditions)),
        limit=draw(st.one_of(st.none(), st.integers(1, 99))),
    )
    return core


queries = st.builds(lambda core: Query(core=core, compounds=[]), select_cores())


# ---------------------------------------------------------------------------
# SQL toolkit invariants
# ---------------------------------------------------------------------------


class TestSQLRoundTrip:
    @given(queries)
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    def test_render_parse_fixpoint(self, query):
        once = render_sql(query)
        again = render_sql(parse_sql(once))
        assert once == again

    @given(queries)
    @settings(max_examples=80)
    def test_em_reflexive(self, query):
        sql = render_sql(query)
        assert exact_set_match(sql, sql)

    @given(queries)
    @settings(max_examples=80)
    def test_em_signature_stable_under_reparse(self, query):
        sql = render_sql(query)
        assert em_signature(parse_sql(sql)) == em_signature(parse_sql(sql))

    @given(select_cores())
    @settings(max_examples=80)
    def test_projection_permutation_em_invariant(self, core):
        if len(core.items) < 2:
            return
        sql_a = render_sql(Query(core=core, compounds=[]))
        core.items = list(reversed(core.items))
        sql_b = render_sql(Query(core=core, compounds=[]))
        assert exact_set_match(sql_a, sql_b)


class TestSkeletonInvariants:
    @given(queries)
    @settings(max_examples=100)
    def test_no_identifier_survives(self, query):
        sql = render_sql(query)
        tokens = skeleton_tokens(sql)
        names = {query.core.from_clause.first.name.lower()}
        for item in query.core.items:
            if isinstance(item.expr, ColumnRef):
                names.add(item.expr.column.lower())
        assert not names & {t.lower() for t in tokens}

    @given(queries)
    @settings(max_examples=100)
    def test_same_structure_same_skeleton(self, query):
        sql = render_sql(query)
        # Renaming tables/columns must not change the skeleton.
        renamed = render_sql(parse_sql(sql))
        assert skeleton_tokens(sql) == skeleton_tokens(renamed)

    @given(queries)
    @settings(max_examples=100)
    def test_abstraction_levels_shrink(self, query):
        tokens = skeleton_tokens(render_sql(query))
        lengths = [len(abstract_tokens(tokens, lv)) for lv in (1, 2, 3, 4)]
        assert lengths[0] >= lengths[1] >= lengths[3]
        assert lengths[1] == lengths[2]  # structure renames, never drops

    @given(queries)
    @settings(max_examples=100)
    def test_keywords_level_has_no_placeholders(self, query):
        tokens = skeleton_tokens(render_sql(query))
        assert PLACEHOLDER not in abstract_tokens(tokens, 2)


# ---------------------------------------------------------------------------
# Text utilities
# ---------------------------------------------------------------------------

words = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=10)


class TestTextProperties:
    @given(words, words)
    def test_edit_distance_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(words)
    def test_edit_distance_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(words, words, words)
    def test_edit_distance_triangle(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(st.data())
    def test_pluralize_singularize_round_trip_on_corpus_vocabulary(self, data):
        """The heuristics cannot invert arbitrary English, but they must
        round-trip every word actually used as a schema surface form."""
        from repro.spider.domains import all_domains
        from repro.utils.text import split_words

        vocabulary = sorted(
            {
                word
                for blueprint in all_domains()
                for table in blueprint.tables
                for word in (
                    split_words(table.natural)
                    + [w for s in table.synonyms for w in split_words(s)]
                    + [
                        w
                        for column in table.columns
                        for w in split_words(column.natural)
                    ]
                )
            }
        )
        w = data.draw(st.sampled_from(vocabulary))
        assert singularize(pluralize(w)) == singularize(w)

    @given(st.text(max_size=200), st.text(max_size=200))
    def test_token_count_subadditive_concat(self, a, b):
        assert count_tokens(a + " " + b) <= count_tokens(a) + count_tokens(b) + 1

    @given(
        st.text(max_size=200),
        st.from_regex(r"\s+", fullmatch=True),
        st.text(max_size=200),
    )
    def test_token_count_additive_across_whitespace(self, a, ws, b):
        # No token piece spans whitespace: what prompt sections rely on.
        assert count_tokens(a + ws + b) == count_tokens(a) + count_tokens(b)

    @given(st.text(max_size=300))
    def test_token_count_nonnegative(self, text):
        assert count_tokens(text) >= 0


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.integers(-5, 5), st.text(max_size=3), st.none()),
        st.one_of(st.integers(-5, 5), st.floats(allow_nan=False,
                                                allow_infinity=False)),
    ),
    max_size=6,
)


class TestResultEquality:
    @given(rows_strategy)
    def test_reflexive(self, rows):
        a = ExecutionResult(rows=list(rows))
        b = ExecutionResult(rows=list(rows))
        assert results_equal(a, b)

    @given(rows_strategy)
    def test_permutation_invariant_unordered(self, rows):
        a = ExecutionResult(rows=list(rows))
        b = ExecutionResult(rows=list(reversed(rows)))
        assert results_equal(a, b, ordered=False)

    @given(rows_strategy, rows_strategy)
    def test_symmetric(self, rows_a, rows_b):
        a = ExecutionResult(rows=list(rows_a))
        b = ExecutionResult(rows=list(rows_b))
        assert results_equal(a, b) == results_equal(b, a)


# ---------------------------------------------------------------------------
# Database fuzzing invariants
# ---------------------------------------------------------------------------


class TestFuzzProperties:
    @given(st.integers(0, 30), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_fuzz_keeps_fk_integrity(self, index, seed):
        from repro.eval import fuzz_database
        from repro.spider.domains import domain_by_name

        db = domain_by_name("soccer").instantiate(0, seed=1)
        variant = fuzz_database(db, index, seed)
        team_ids = {r[0] for r in variant.table_rows("team")}
        fk_idx = [c.key for c in variant.schema.table("player").columns].index(
            "team_id"
        )
        for row in variant.table_rows("player"):
            assert row[fk_idx] in team_ids

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_fuzz_row_counts_bounded(self, index):
        from repro.eval import fuzz_database
        from repro.spider.domains import domain_by_name

        db = domain_by_name("student_pets").instantiate(0, seed=2)
        variant = fuzz_database(db, index, seed=0)
        for table in db.schema.tables:
            original = len(db.table_rows(table.name))
            fuzzed = len(variant.table_rows(table.name))
            assert 2 <= fuzzed <= int(original * 1.3) + 1
