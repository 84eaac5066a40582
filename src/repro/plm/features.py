"""Feature engineering for the PLM substrates.

``schema_item_features`` featurizes a (question, schema item) pair for the
relevance classifier from a per-question half (:class:`QuestionTerms`)
and a per-item half (:class:`SchemaItem`); :class:`SchemaFeaturizer`
builds each half once so training and inference share one layout.
``question_cues`` extracts the operator-composition cue indicators that
condition the skeleton sequence model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.schema import Database, Schema
from repro.utils.text import singularize, split_words

SCHEMA_FEATURE_DIM = 12

# Cue indicators, in order.  Each is (name, regex) over the lowercase
# question; the skeleton model conditions on this binary vector.
CUE_PATTERNS = (
    ("how_many", r"\bhow many\b"),
    ("count_the", r"\bcount\b"),
    ("different", r"\bdifferent\b|\bdistinct\b|\bunique\b"),
    ("average", r"\baverage\b"),
    ("maximum", r"\bmaximum\b"),
    ("minimum", r"\bminimum\b"),
    ("total", r"\btotal\b"),
    ("at_least", r"\bat least\b"),
    ("at_most", r"\bat most\b"),
    ("greater", r"\bgreater than\b|\bmore than\b|\babove\b|\bexceed"),
    ("less", r"\bless than\b|\bbelow\b|\bunder\b"),
    ("between", r"\bbetween\b"),
    ("contains", r"\bcontain|\bstarts with\b|\bends with\b|\brelated to\b"),
    ("not_equal", r"\bis not\b|\bnot with\b"),
    ("negation", r"\bdo not\b|\bdoes not\b|\bdon't\b|\bnever\b|\bwithout\b|\bno\b"),
    ("highest", r"\bhighest\b|\blargest\b|\bbiggest\b"),
    ("lowest", r"\blowest\b|\bsmallest\b"),
    ("most", r"\bthe most\b"),
    ("fewest", r"\bthe fewest\b|\bthe least\b"),
    ("sorted", r"\bsort|\border\b|\bascending\b|\bdescending\b"),
    ("descending", r"\bdescending\b"),
    ("for_each", r"\bfor each\b|\bof each\b|\bper\b|\beach\b"),
    ("number_of", r"\bnumber of\b"),
    ("both", r"\bboth\b"),
    ("either_or", r"\bor\b"),
    ("and_filter", r"\band\b"),
    ("average_compare", r"\babove the average\b|\bbelow the average\b"),
    ("top_k", r"\bthe \d+ \b"),
    ("who", r"\bwho\b"),
    ("among", r"\bamong\b"),
    ("quoted_value", r"'[^']+'"),
    ("numeric_value", r"\b\d+\b"),
    ("of_their", r"\bits\b|\btheir\b"),
    # Annotation-convention phrasings (each correlates with a realization).
    ("no_at_all", r"\bhave no\b.*\bat all\b"),
    ("is_the_extreme", r"\bis the maximum\b|\bis the minimum\b"),
    ("as_well_as", r"\bas well as\b"),
    ("either", r"\beither\b"),
    ("belonging_to", r"\bbelonging to\b"),
    ("more_than_n", r"\bmore than \d+\b"),
    ("at_least_n", r"\bat least \d+\b"),
    ("greatest_number", r"\bgreatest number\b"),
    ("count_of_distinct", r"\bcount of distinct\b"),
    ("count_the_each", r"^count the\b"),
)

CUE_DIM = len(CUE_PATTERNS)

# Cues that signal an annotation convention (each correlates with one SQL
# realization).  The simulated LLM compares these between the task question
# and each demonstration's question — attending to a same-phrasing
# demonstration is how in-context learning picks the right variant even
# when it is not the first demonstration in the prompt.
CONVENTION_CUES = frozenset(
    {
        "no_at_all",
        "negation",
        "is_the_extreme",
        "highest",
        "lowest",
        "as_well_as",
        "both",
        "either",
        "belonging_to",
        "more_than_n",
        "at_least_n",
        "greatest_number",
        "most",
        "count_of_distinct",
        "count_the_each",
        "different",
        "between",
    }
)


def convention_cues(question: str) -> frozenset:
    """The convention-signalling cues firing in a question."""
    return frozenset(cue_names(question) & CONVENTION_CUES)

_CUE_REGEX = [(name, re.compile(pattern)) for name, pattern in CUE_PATTERNS]


def question_cues(question: str) -> np.ndarray:
    """Binary cue-indicator vector for a question."""
    text = question.lower()
    return np.array(
        [1.0 if regex.search(text) else 0.0 for _, regex in _CUE_REGEX],
        dtype=float,
    )


def cue_names(question: str) -> set:
    """Names of the cues firing in a question (used in tests/diagnostics)."""
    text = question.lower()
    return {name for name, regex in _CUE_REGEX if regex.search(text)}


@dataclass(frozen=True)
class QuestionTerms:
    """The question's half of :func:`schema_item_features`, built once.

    ``words`` are the singularized question words, ``phrase`` their
    space-padded join (for full-phrase matches), ``trigrams`` the
    character trigrams of the sorted word set and ``text`` the lowercase
    question (for value mentions).
    """

    text: str
    words: frozenset
    phrase: str
    trigrams: frozenset

    @staticmethod
    def of(question: str) -> "QuestionTerms":
        """Split and singularize ``question`` once."""
        singular = [singularize(w) for w in split_words(question)]
        words = frozenset(singular)
        return QuestionTerms(
            text=question.lower(),
            words=words,
            phrase=_phrase(singular),
            trigrams=_trigrams("".join(sorted(words))),
        )


@dataclass(frozen=True)
class SchemaItem:
    """The schema's half of :func:`schema_item_features` for one item.

    ``column`` empty means the item is the table itself; ``table_words``
    (the owning table's words) and the key flags only matter for columns.
    ``mentions`` are ``(needle, word_pattern)`` tests for the column's
    sample values when a database is given (see :func:`_mention_tests`).
    """

    table: str
    column: str
    words: tuple
    phrase: str
    trigrams: frozenset
    table_words: tuple = ()
    is_pk: float = 0.0
    is_fk: float = 0.0
    mentions: tuple = ()

    @staticmethod
    def of(
        schema: Schema,
        table: str,
        column: str = "",
        database: Database = None,
        table_words: tuple = None,
    ) -> "SchemaItem":
        """Featurize one item; pass ``table_words`` to reuse the table's."""
        tbl = schema.table(table)
        if table_words is None:
            table_words = _words(tbl.natural_name)
        if not column:
            return SchemaItem(
                table, "", table_words, _phrase(table_words),
                _trigrams("".join(table_words)),
            )
        words = _words(tbl.column(column).natural_name)
        is_fk = 0.0
        for fk in schema.foreign_keys:
            src_t, src_c, dst_t, dst_c = fk.normalized()
            if (src_t, src_c) == (table.lower(), column.lower()):
                is_fk = 1.0
            if (dst_t, dst_c) == (table.lower(), column.lower()):
                is_fk = 1.0
        mentions = ()
        if database is not None:
            mentions = _mention_tests(
                database.column_values(table, column, limit=50)
            )
        return SchemaItem(
            table,
            column,
            words,
            _phrase(words),
            _trigrams("".join(words)),
            table_words=table_words,
            is_pk=1.0 if (tbl.primary_key or "").lower() == column.lower() else 0.0,
            is_fk=is_fk,
            mentions=mentions,
        )


class SchemaFeaturizer:
    """Every item of one schema, featurized once and reused per question.

    ``items`` are in training-row order: each table, then its columns.
    """

    def __init__(self, schema: Schema, database: Database = None) -> None:
        self.schema = schema
        self.items = []
        for tbl in schema.tables:
            table_item = SchemaItem.of(schema, tbl.key)
            self.items.append(table_item)
            for col in tbl.columns:
                self.items.append(
                    SchemaItem.of(
                        schema, tbl.key, col.key, database, table_item.words
                    )
                )
        self.size = schema.size()

    def rows(self, question: str):
        """Yield ``(item, feature_vector)`` for every item, in order."""
        terms = QuestionTerms.of(question)
        for item in self.items:
            yield item, item_features(terms, item, self.size)


def schema_item_features(
    question: str,
    schema: Schema,
    item_table: str,
    item_column: str = "",
    database: Database = None,
) -> np.ndarray:
    """Featurize a (question, schema item) pair.

    ``item_column`` empty means the item is the table itself.  Features
    capture lexical overlap between the question and the item's natural
    name, value mentions, and structural hints (primary/foreign key).
    """
    item = SchemaItem.of(schema, item_table, item_column, database)
    return item_features(QuestionTerms.of(question), item, schema.size())


def item_features(
    terms: QuestionTerms, item: SchemaItem, schema_size: tuple
) -> np.ndarray:
    """The feature vector of one (question, item) pair."""
    overlap = sum(1 for w in item.words if w in terms.words)
    full_phrase = 1.0 if item.phrase in terms.phrase else 0.0
    coverage = overlap / len(item.words) if item.words else 0.0

    # Character-trigram similarity (catches partial morphology).
    char_sim = 0.0
    if item.trigrams and terms.trigrams:
        char_sim = len(item.trigrams & terms.trigrams) / len(item.trigrams)

    table_mentioned = 0.0
    if item.column and item.table_words:
        table_mentioned = sum(
            1 for w in item.table_words if w in terms.words
        ) / len(item.table_words)

    n_tables, n_columns = schema_size
    return np.array(
        [
            1.0,  # bias
            float(overlap),
            coverage,
            full_phrase,
            char_sim,
            _value_mentioned(terms.text, item.mentions),
            item.is_pk,
            item.is_fk,
            table_mentioned,
            1.0 if item.column else 0.0,  # item is a column
            min(n_tables, 10) / 10.0,
            min(n_columns, 50) / 50.0,
        ],
        dtype=float,
    )


def _words(natural_name: str) -> tuple:
    return tuple(singularize(w) for w in split_words(natural_name))


def _phrase(words: tuple) -> str:
    return " " + " ".join(words) + " "


def _trigrams(text: str) -> frozenset:
    return frozenset(text[i : i + 3] for i in range(max(0, len(text) - 2)))


def _mention_tests(values: list) -> tuple:
    """Value-mention tests: strings (3+ chars) by substring, numbers by word.

    A number's pattern only runs once its text occurs in the question.
    """
    tests = []
    for value in values:
        if isinstance(value, str) and len(value) >= 3:
            tests.append((value.lower(), None))
        elif isinstance(value, (int, float)):
            text = str(value)
            tests.append((text, re.compile(rf"\b{re.escape(text)}\b")))
    return tuple(tests)


def _value_mentioned(text: str, mentions: tuple) -> float:
    for needle, pattern in mentions:
        if needle in text and (pattern is None or pattern.search(text)):
            return 1.0
    return 0.0
