"""NL understanding for the simulated LLM.

The understander re-derives an :class:`~repro.spider.intents.IntentSpec`
from the question text and the schema *as presented in the prompt*.  Its
competence profile controls exactly the failure modes the paper's
benchmarks probe:

* unknown schema-term synonyms (Spider-SYN) make column linking miss;
* questions without explicit column mentions (Spider-Realistic) force
  value-based linking, which succeeds with ``value_link_skill``;
* domain-knowledge paraphrases (Spider-DK) resolve only when the profile
  knows the fact;
* distractor columns in an unpruned schema create lexical near-ties that
  trigger ``column_confusion`` — which is why schema pruning helps.

Intent *kind* detection is essentially perfect — the paper's premise is
that LLMs understand user intention well; their weakness is composition,
which is handled downstream in realization choice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.llm.knowledge import lookup_dk, lookup_synonym
from repro.llm.profiles import LLMProfile
from repro.llm.promptfmt import SchemaInfo
from repro.spider.intents import FilterSpec, IntentSpec
from repro.utils.text import singularize, split_words

_AGG_WORDS = {
    "average": "AVG",
    "maximum": "MAX",
    "minimum": "MIN",
    "total": "SUM",
}

_NUM_RE = r"-?\d+(?:\.\d+)?"
_VAL_RE = rf"(?:'[^']*'|{_NUM_RE})"

# Filter patterns, most specific first.  Each yields (col, op, v, v2, dk).
_FILTER_PATTERNS = (
    (rf"whose (?P<col>[\w ]+?) is at least (?P<v>{_VAL_RE})", ">="),
    (rf"whose (?P<col>[\w ]+?) is at most (?P<v>{_VAL_RE})", "<="),
    (rf"whose (?P<col>[\w ]+?) is greater than (?P<v>{_VAL_RE})", ">"),
    (rf"whose (?P<col>[\w ]+?) is less than (?P<v>{_VAL_RE})", "<"),
    (rf"whose (?P<col>[\w ]+?) is between (?P<v>{_VAL_RE}) and (?P<v2>{_VAL_RE})", "between"),
    (rf"whose (?P<col>[\w ]+?) is not (?P<v>{_VAL_RE})", "!="),
    (rf"whose (?P<col>[\w ]+?) contains (?P<v>{_VAL_RE})", "like"),
    (rf"whose (?P<col>[\w ]+?) is (?P<v>{_VAL_RE})", "="),
    (r"that are (?P<dk>[\w ]+?)(?=$|\?| and | or |,)", "dk"),
    (rf"with above (?P<v>{_VAL_RE})", ">"),
    (rf"with below (?P<v>{_VAL_RE})", "<"),
    (rf"with at least (?P<v>{_VAL_RE})", ">="),
    (rf"with at most (?P<v>{_VAL_RE})", "<="),
    (rf"not with (?P<v>{_VAL_RE})", "!="),
    (rf"related to (?P<v>{_VAL_RE})", "like"),
    (rf"between (?P<v>{_VAL_RE}) and (?P<v2>{_VAL_RE})", "between"),
    (rf"with (?P<v>{_VAL_RE})", "="),
)

_COMPILED_FILTERS = [
    (re.compile(pattern, re.IGNORECASE), op) for pattern, op in _FILTER_PATTERNS
]


@dataclass
class Understanding:
    """The understander's output."""

    intent: Optional[IntentSpec]
    confidence: float = 1.0


def _match(pattern: str, text: str):
    """Case-insensitive anchored match (questions keep original casing so
    extracted values preserve their case)."""
    return re.match(pattern, text, re.IGNORECASE)


class Understander:
    """Question + prompt schema → intent, with profile-dependent noise.

    Holds only its profile, so one instance can serve concurrent callers:
    each call reads the question with its own noise scale.
    """

    def __init__(self, profile: LLMProfile):
        self.profile = profile

    def understand(
        self,
        question: str,
        schema: SchemaInfo,
        rng: np.random.Generator,
        noise_scale: float = 1.0,
        links: Optional[dict] = None,
    ) -> Understanding:
        """Parse the question into an intent, with profile noise.

        ``links`` memoizes the linking rankings, which depend only on
        the phrase and ``schema``: a caller reading one question against
        one schema many times (the n samples of a prompt) passes one
        dict to every reading.  The rng draws stay per reading.
        """
        reading = _Reading(self.profile, noise_scale, links)
        return reading.understand(question, schema, rng)


class _Reading:
    """One reading of one question: the profile at one noise scale."""

    def __init__(
        self, profile: LLMProfile, noise: float, links: Optional[dict] = None
    ):
        self.profile = profile
        self.noise = noise
        self.links = {} if links is None else links

    def understand(
        self, question: str, schema: SchemaInfo, rng: np.random.Generator
    ) -> Understanding:
        text = question.strip().rstrip("?")
        try:
            intent = self._dispatch(text, schema, rng)
        except _LinkError:
            intent = None
        if intent is None:
            intent = self._fallback(text, schema, rng)
            return Understanding(intent=intent, confidence=0.2)
        return Understanding(intent=intent, confidence=0.9)

    # -- kind dispatch --------------------------------------------------------------

    def _dispatch(self, text, schema, rng) -> Optional[IntentSpec]:
        lowered = text.lower()
        if "do not have any" in lowered or (
            "have no " in lowered and "at all" in lowered
        ):
            return self._exclusion(text, schema, rng)
        if "have both" in lowered or "as well as" in lowered:
            return self._intersect(text, schema, rng)
        if "above the average" in lowered or "below the average" in lowered:
            return self._compare_avg(text, schema, rng)
        if "the most" in lowered or "greatest number of" in lowered:
            return self._group_argmax(text, schema, rng)
        if re.search(r"have (at least|more than) \d+", lowered):
            return self._group_having(text, schema, rng)
        if lowered.startswith("for each of the"):
            return self._join_list(text, schema, rng)
        if lowered.startswith("for each") and "number of" in lowered:
            return self._group_count(text, schema, rng)
        if lowered.startswith("count the") and " of each " in lowered:
            return self._group_count(text, schema, rng)
        if lowered.startswith("how many different") or lowered.startswith(
            "what is the count of distinct"
        ):
            return self._distinct_count(text, schema, rng)
        if lowered.startswith("how many"):
            return self._count(text, schema, rng)
        if re.search(r"of the \d+ ", lowered):
            return self._top_k(text, schema, rng)
        if re.search(r"(with|has) the (highest|lowest)", lowered) or re.search(
            r"is the (maximum|minimum)", lowered
        ):
            return self._superlative(text, schema, rng)
        if "sorted by" in lowered:
            return self._ordered_list(text, schema, rng)
        if re.match(r"^what (is|are) the (average|maximum|minimum|total)", lowered):
            return self._aggregate(text, schema, rng)
        if re.search(r" (?:either )?(whose|with|that are|related|between)[^?]* or ", lowered) and (
            " of " in lowered
        ):
            return self._union(text, schema, rng)
        if self._looks_join_filtered(text):
            return self._join_filtered(text, schema, rng)
        if lowered.startswith("who are the"):
            return self._realistic_list(text, schema, rng)
        if self._has_filter_cue(text):
            return self._filtered_list(text, schema, rng)
        return self._list(text, schema, rng)

    @staticmethod
    def _has_filter_cue(text: str) -> bool:
        return bool(
            re.search(r"\bwhose\b|\bthat are\b|\bwith '|\bwith \d|\bwith (above|below|at least|at most)|\bnot with\b|\brelated to\b", text)
        )

    @staticmethod
    def _looks_join_filtered(text: str) -> bool:
        return bool(
            re.search(
                r" of [\w ]+ (?:of|belonging to) [\w ]+ (whose|with|that are|related)",
                text,
            )
        )

    # -- archetype parsers -------------------------------------------------------------

    _HEAD = r"^(?:what are the|what is the|list the|show the|give the) "

    def _list(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(self._HEAD + r"(?P<diff>different )?(?P<cols>.+) of (?P<table>.+)$", text)
        if not match:
            return None
        table = self._link_table(match.group("table"), schema, rng)
        projections = self._link_projection_list(
            match.group("cols"), table, schema, rng
        )
        return IntentSpec(
            kind="list",
            table=table,
            projections=projections,
            distinct_explicit=bool(match.group("diff")),
        )

    def _realistic_list(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^who are the (?P<table>.+)$", text)
        if not match:
            return None
        table = self._link_table(match.group("table"), schema, rng)
        column = self._guess_display_column(table, schema, rng)
        return IntentSpec(
            kind="list", table=table, projections=[["col", table, column]]
        )

    def _filtered_list(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(self._HEAD + r"(?P<cols>.+?) of (?P<seg>.+)$", text)
        if not match:
            return None
        seg = match.group("seg")
        table_phrase, filters = self._split_filters(seg, schema, rng)
        table = self._link_table(table_phrase, schema, rng)
        filters = self._attribute_filters(filters, table, schema, rng)
        projections = self._link_projection_list(
            match.group("cols"), table, schema, rng
        )
        if not filters:
            return IntentSpec(kind="list", table=table, projections=projections)
        return IntentSpec(
            kind="filtered_list",
            table=table,
            projections=projections,
            filters=filters,
        )

    def _count(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^how many (?P<seg>.+?) are there(?P<tail>.*)$", text)
        if not match:
            return None
        table = self._link_table(match.group("seg"), schema, rng)
        _, filters = self._split_filters(match.group("tail"), schema, rng)
        filters = self._attribute_filters(filters, table, schema, rng)
        return IntentSpec(
            kind="count",
            table=table,
            projections=[["agg", "COUNT", table, "*"]],
            filters=filters,
        )

    def _distinct_count(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^how many different (?P<col>.+?) are there among (?P<seg>.+)$", text
        )
        if match is None:
            match = _match(r"^what is the count of distinct (?P<col>.+?) among (?P<seg>.+)$",
                text,
            )
        if not match:
            return None
        table_phrase, filters = self._split_filters(match.group("seg"), schema, rng)
        table = self._link_table(table_phrase, schema, rng)
        column = self._link_column(match.group("col"), schema, rng, table=table)
        filters = self._attribute_filters(filters, table, schema, rng)
        return IntentSpec(
            kind="distinct_count",
            table=table,
            projections=[["agg", "COUNT", table, column]],
            filters=filters,
        )

    def _aggregate(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^what (?:is|are) the (?P<aggs>(?:average|maximum|minimum|total)"
            r"(?: and (?:average|maximum|minimum|total))?) "
            r"(?P<col>.+?) of (?P<seg>.+)$",
            text,
        )
        if not match:
            return None
        table_phrase, filters = self._split_filters(match.group("seg"), schema, rng)
        table = self._link_table(table_phrase, schema, rng)
        column = self._link_column(match.group("col"), schema, rng, table=table)
        funcs = [_AGG_WORDS[w] for w in match.group("aggs").split(" and ")]
        filters = self._attribute_filters(filters, table, schema, rng)
        return IntentSpec(
            kind="aggregate",
            table=table,
            projections=[["agg", fn, table, column] for fn in funcs],
            filters=filters,
        )

    def _ordered_list(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(self._HEAD + r"(?P<col>.+?) of (?P<seg>.+?) sorted by (?P<ocol>.+?) "
            r"in (?P<dir>descending|ascending) order$",
            text,
        )
        if not match:
            return None
        table_phrase, filters = self._split_filters(match.group("seg"), schema, rng)
        table = self._link_table(table_phrase, schema, rng)
        column = self._link_column(match.group("col"), schema, rng, table=table)
        ocol = self._link_column(match.group("ocol"), schema, rng, table=table)
        direction = "DESC" if match.group("dir") == "descending" else "ASC"
        filters = self._attribute_filters(filters, table, schema, rng)
        return IntentSpec(
            kind="ordered_list",
            table=table,
            projections=[["col", table, column]],
            filters=filters,
            order=[table, ocol, direction],
        )

    def _top_k(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(self._HEAD + r"(?P<col>.+?) of the (?P<k>\d+) (?P<table>.+?) "
            r"with the (?P<ext>highest|lowest) (?P<ocol>.+)$",
            text,
        )
        if not match:
            return None
        table = self._link_table(match.group("table"), schema, rng)
        column = self._link_column(match.group("col"), schema, rng, table=table)
        ocol = self._link_column(match.group("ocol"), schema, rng, table=table)
        direction = "DESC" if match.group("ext") == "highest" else "ASC"
        return IntentSpec(
            kind="top_k",
            table=table,
            projections=[["col", table, column]],
            order=[table, ocol, direction],
            limit=int(match.group("k")),
        )

    def _superlative(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^what is the (?P<col>.+?) of the (?P<table>.+?) with the "
            r"(?P<ext>highest|lowest) (?P<ocol>.+)$",
            text,
        )
        column = None
        if match is None:
            match = _match(r"^what is the (?P<col>.+?) of the (?P<table>.+?) whose "
                r"(?P<ocol>.+?) is the (?P<ext>maximum|minimum)$",
                text,
            )
        if match is None:
            match = _match(r"^which (?P<table>.+?) has the (?P<ext>highest|lowest) (?P<ocol>.+)$",
                text,
            )
            if match is None:
                return None
        table = self._link_table(match.group("table"), schema, rng)
        if "col" in match.groupdict() and match.groupdict().get("col"):
            column = self._link_column(match.group("col"), schema, rng, table=table)
        else:
            column = self._guess_display_column(table, schema, rng)
        ocol = self._link_column(match.group("ocol"), schema, rng, table=table)
        direction = "DESC" if match.group("ext") in ("highest", "maximum") else "ASC"
        return IntentSpec(
            kind="superlative",
            table=table,
            projections=[["col", table, column]],
            order=[table, ocol, direction],
            limit=1,
        )

    def _compare_avg(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^which (?P<table>.+?) have a (?P<ocol>.+?) (?P<side>above|below) "
            r"the average\W* show their (?P<col>.+)$",
            text,
        )
        if not match:
            return None
        table = self._link_table(match.group("table"), schema, rng)
        ocol = self._link_column(match.group("ocol"), schema, rng, table=table)
        column = self._link_column(match.group("col"), schema, rng, table=table)
        op = ">" if match.group("side") == "above" else "<"
        return IntentSpec(
            kind="compare_avg",
            table=table,
            projections=[["col", table, column]],
            order=[table, ocol, op],
            compare_agg="AVG",
        )

    def _join_list(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^for each of the (?P<childseg>.+?), show its (?P<ccol>.+?) and the "
            r"(?P<pcol>.+?) of its (?P<parent>.+)$",
            text,
        )
        if not match:
            return None
        child_phrase, filters = self._split_filters(
            match.group("childseg"), schema, rng
        )
        child = self._link_table(child_phrase, schema, rng)
        parent = self._link_table(match.group("parent"), schema, rng)
        fk = self._find_fk(schema, child, parent)
        if fk is None:
            raise _LinkError
        ccol = self._link_column(match.group("ccol"), schema, rng, table=child)
        pcol = self._link_column(match.group("pcol"), schema, rng, table=parent)
        filters = self._attribute_filters(filters, child, schema, rng, other=parent)
        return IntentSpec(
            kind="join_list",
            table=child,
            projections=[["col", child, ccol], ["col", parent, pcol]],
            filters=filters,
            fk=fk,
        )

    def _join_filtered(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(self._HEAD + r"(?P<ccol>.+?) of (?P<child>.+?) "
            r"(?:of|belonging to) (?P<parentseg>.+)$",
            text,
        )
        if not match:
            return None
        child = self._link_table(match.group("child"), schema, rng)
        parent_phrase, filters = self._split_filters(
            match.group("parentseg"), schema, rng
        )
        parent = self._link_table(parent_phrase, schema, rng)
        fk = self._find_fk(schema, child, parent)
        if fk is None:
            raise _LinkError
        ccol = self._link_column(match.group("ccol"), schema, rng, table=child)
        filters = self._attribute_filters(filters, parent, schema, rng)
        if not filters:
            raise _LinkError
        return IntentSpec(
            kind="join_filtered",
            table=child,
            projections=[["col", child, ccol]],
            filters=filters,
            fk=fk,
        )

    def _group_count(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^for each (?P<parent>.+?), show its (?P<pcol>.+?) and the "
            r"number of (?P<child>.+?) it has$",
            text,
        )
        by_key_phrasing = False
        if match is None:
            match = _match(r"^count the (?P<child>.+?) of each (?P<parent>.+?)\W+"
                r"show the (?P<pcol>.+?) and the count$",
                text,
            )
            by_key_phrasing = True
        if not match:
            return None
        parent = self._link_table(match.group("parent"), schema, rng)
        child = self._link_table(match.group("child"), schema, rng)
        fk = self._find_fk(schema, child, parent)
        if fk is None:
            raise _LinkError
        pcol = self._link_column(match.group("pcol"), schema, rng, table=parent)
        # The two realizations differ only in the GROUP BY column, which the
        # skeleton cannot express; the phrasing disambiguates instead
        # ("Count the ... of each ..." is the per-key convention).
        group_col = fk[3] if by_key_phrasing else pcol
        return IntentSpec(
            kind="group_count",
            table=child,
            projections=[["col", parent, pcol], ["agg", "COUNT", child, "*"]],
            fk=fk,
            group_by=[parent, group_col],
        )

    def _group_having(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^which (?P<parent>.+?) have (?P<cmp>at least|more than) "
            r"(?P<n>\d+) (?P<child>.+?)\W+"
            r"show their (?P<pcol>.+)$",
            text,
        )
        if not match:
            return None
        parent = self._link_table(match.group("parent"), schema, rng)
        child = self._link_table(match.group("child"), schema, rng)
        fk = self._find_fk(schema, child, parent)
        if fk is None:
            raise _LinkError
        pcol = self._link_column(match.group("pcol"), schema, rng, table=parent)
        return IntentSpec(
            kind="group_having",
            table=child,
            projections=[["col", parent, pcol]],
            fk=fk,
            group_by=[parent, pcol],
            having=[
                "COUNT",
                ">=",
                int(match.group("n"))
                + (1 if match.group("cmp") == "more than" else 0),
            ],
        )

    def _group_argmax(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^which (?P<parent>.+?) has the most (?P<child>.+?)\W+"
            r"show its (?P<pcol>.+)$",
            text,
        )
        if match is None:
            match = _match(r"^which (?P<parent>.+?) has the greatest number of "
                r"(?P<child>.+?)\W+show its (?P<pcol>.+)$",
                text,
            )
        if not match:
            return None
        parent = self._link_table(match.group("parent"), schema, rng)
        child = self._link_table(match.group("child"), schema, rng)
        fk = self._find_fk(schema, child, parent)
        if fk is None:
            raise _LinkError
        pcol = self._link_column(match.group("pcol"), schema, rng, table=parent)
        return IntentSpec(
            kind="group_argmax",
            table=child,
            projections=[["col", parent, pcol]],
            fk=fk,
            group_by=[parent, pcol],
            order=["count", "", "DESC"],
            limit=1,
        )

    def _exclusion(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^which (?P<parent>.+?) do not have any (?P<childseg>.+?)\?\s*"
            r"show their (?P<pcol>.+)$",
            text,
        )
        if match is None:
            match = _match(r"^which (?P<parent>.+?) have no (?P<childseg>.+?) at all\?\s*"
                r"show their (?P<pcol>.+)$",
                text,
            )
        if not match:
            return None
        parent = self._link_table(match.group("parent"), schema, rng)
        child_phrase, filters = self._split_filters(
            match.group("childseg"), schema, rng
        )
        child = self._link_table(child_phrase, schema, rng)
        fk = self._find_fk(schema, child, parent)
        if fk is None:
            raise _LinkError
        pcol = self._link_column(match.group("pcol"), schema, rng, table=parent)
        filters = self._attribute_filters(filters, child, schema, rng)
        return IntentSpec(
            kind="exclusion",
            table=parent,
            projections=[["col", parent, pcol]],
            filters=filters,
            fk=fk,
        )

    def _intersect(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(r"^which (?P<pcol>.+?) have both (?P<rest>.+)$", text
        )
        if match is None:
            match = _match(
                r"^which (?P<pcol>.+?) have (?P<rest>.+? as well as .+)$", text
            )
        if not match:
            return None
        rest = match.group("rest")
        table_phrase = rest.split(" whose ")[0].split(" with ")[0].split(" that are ")[0]
        table = self._link_table(table_phrase, schema, rng)
        _, filters = self._split_filters(" " + rest, schema, rng)
        if len(filters) < 2:
            raise _LinkError
        pcol = self._link_column(match.group("pcol"), schema, rng, table=table)
        attributed = self._attribute_filters(filters[:1], table, schema, rng)
        attributed2 = self._attribute_filters(filters[1:2], table, schema, rng)
        if not attributed or not attributed2:
            raise _LinkError
        return IntentSpec(
            kind="intersect",
            table=table,
            projections=[["col", table, pcol]],
            filters=attributed,
            second_filters=attributed2,
        )

    def _union(self, text, schema, rng) -> Optional[IntentSpec]:
        match = _match(self._HEAD + r"(?P<col>.+?) of (?P<seg>.+)$", text)
        if not match:
            return None
        table_phrase, filters = self._split_filters(match.group("seg"), schema, rng)
        if len(filters) < 2:
            raise _LinkError
        table_phrase = table_phrase.removesuffix(" either")
        table = self._link_table(table_phrase, schema, rng)
        column = self._link_column(match.group("col"), schema, rng, table=table)
        attributed = self._attribute_filters(filters[:1], table, schema, rng)
        attributed2 = self._attribute_filters(filters[1:2], table, schema, rng)
        if not attributed or not attributed2:
            raise _LinkError
        return IntentSpec(
            kind="union_op",
            table=table,
            projections=[["col", table, column]],
            filters=attributed,
            second_filters=attributed2,
        )

    # -- fallback --------------------------------------------------------------------

    def _fallback(self, text, schema, rng) -> Optional[IntentSpec]:
        """Best-effort guess when parsing failed: list something plausible."""
        tables = schema.table_names()
        if not tables:
            return None
        scores = [_table_score(text, t) for t in tables]
        table = tables[int(np.argmax(scores))]
        column = self._guess_display_column(table, schema, rng)
        if column is None:
            return None
        return IntentSpec(
            kind="list", table=table, projections=[["col", table, column]]
        )

    # -- linking ---------------------------------------------------------------------

    def _link_table(self, phrase: str, schema: SchemaInfo, rng) -> str:
        key = ("table", phrase)
        if key not in self.links:
            self.links[key] = self._rank_tables(phrase, schema)
        best, best_score = self.links[key]
        if best is None or best_score < 0.34:
            # Unfamiliar surface form: guess a plausible table from context
            # rather than giving up (what a real model does with an unknown
            # synonym).  Small schemas make the guess often right.
            tables = schema.table_names()
            if not tables:
                raise _LinkError
            return str(tables[int(rng.integers(0, len(tables)))])
        return best

    def _rank_tables(self, phrase: str, schema: SchemaInfo) -> tuple:
        """``(best, best_score)``: the first best-scoring table for
        ``phrase`` or one of its known synonyms."""
        phrase = phrase.strip().strip(".,")
        candidates = [phrase] + lookup_synonym(phrase, self.profile.synonym_coverage)
        best, best_score = None, 0.0
        for table in schema.table_names():
            score = max(_phrase_score(c, table) for c in candidates)
            if score > best_score:
                best, best_score = table, score
        return best, best_score

    def _link_column(
        self,
        phrase: str,
        schema: SchemaInfo,
        rng,
        table: Optional[str] = None,
    ) -> str:
        key = ("column", phrase, table)
        if key not in self.links:
            self.links[key] = self._rank_columns(phrase, schema, table)
        search, best, ties = self.links[key]
        if best is None:
            # Unknown column surface form: guess among type-plausible
            # columns instead of abandoning the whole intent.
            pool = search
            if not pool:
                raise _LinkError
            tbl, col = pool[int(rng.integers(0, len(pool)))]
            return col.name
        confusion = min(1.0, self.profile.column_confusion * self.noise)
        if ties and rng.random() < confusion:
            pick = ties[int(rng.integers(0, len(ties)))]
            return pick[2]
        return best[2]

    def _rank_columns(
        self, phrase: str, schema: SchemaInfo, table: Optional[str]
    ) -> tuple:
        """``(search, best, ties)``: the ``(table, ColumnInfo)`` pairs
        searched, the best ``(score, table, column)`` match (None when
        the phrase reads as an unknown column) and its lexical near-ties.

        The 0.34 threshold is tested on the first positive match in
        schema order, before sorting, so a later and better match can
        still read as unknown.
        """
        phrase = phrase.strip().strip(".,")
        candidates = [phrase] + lookup_synonym(phrase, self.profile.synonym_coverage)
        scored = []
        search = (
            [(table, c) for c in schema.columns_of(table)]
            if table
            else schema.all_columns()
        )
        for tbl, col in search:
            score = max(_phrase_score(c, col.name) for c in candidates)
            if score > 0:
                scored.append((score, tbl, col.name))
        if not scored or scored[0][0] < 0.34:
            return search, None, []
        scored.sort(key=lambda s: (-s[0], s[1], s[2]))
        best = scored[0]
        # Lexical near-ties trigger confusion; more distractors, more ties.
        ties = [s for s in scored[1:] if best[0] - s[0] <= 0.25]
        return search, best, ties

    def _link_projection_list(
        self, cols_text: str, table: str, schema: SchemaInfo, rng
    ) -> list:
        """Link a 'a, b and c' projection segment to columns of ``table``."""
        parts = []
        for chunk in cols_text.split(", "):
            parts.extend(chunk.split(" and "))
        projections = []
        for part in parts:
            part = part.strip()
            if not part:
                continue
            column = self._link_column(part, schema, rng, table=table)
            projections.append(["col", table, column])
        if not projections:
            raise _LinkError
        return projections

    def _guess_display_column(self, table: str, schema: SchemaInfo, rng) -> Optional[str]:
        columns = schema.columns_of(table)
        if not columns:
            return None
        for col in columns:
            if col.name.lower() in ("name", "title"):
                return col.name
        for col in columns:
            if col.col_type == "text" and not col.is_primary:
                return col.name
        return columns[0].name

    # -- filters ---------------------------------------------------------------------

    def _split_filters(self, segment: str, schema: SchemaInfo, rng) -> tuple:
        """Split '<table phrase> <filter clauses>' and parse the clauses.

        The segment is first cut at clause starters (``whose``, ``that
        are``, realistic's ``with``/``related to``/``between``), then each
        clause is matched on its own — this is what keeps a lazy column
        capture from swallowing a following clause.

        Returns (table_phrase, [raw filter dict]).
        """
        segment = segment.strip()
        bounds = _clause_bounds(segment)
        if not bounds:
            return segment, []
        table_phrase = segment[: bounds[0]].strip().rstrip(" ,").removesuffix(" and")
        raw = []
        for i, start in enumerate(bounds):
            end = bounds[i + 1] if i + 1 < len(bounds) else len(segment)
            clause = segment[start:end].strip().rstrip(",")
            for suffix in (" and", " or"):
                clause = clause.removesuffix(suffix)
            for regex, op in _COMPILED_FILTERS:
                m = regex.match(clause)
                if m is None:
                    continue
                groups = m.groupdict()
                raw.append(
                    {
                        "col": groups.get("col"),
                        "op": op,
                        "value": _parse_value(groups.get("v")),
                        "value2": _parse_value(groups.get("v2")),
                        "dk": groups.get("dk"),
                    }
                )
                break
        return table_phrase, raw

    def _attribute_filters(
        self,
        raw_filters: list,
        table: str,
        schema: SchemaInfo,
        rng,
        other: Optional[str] = None,
    ) -> list:
        """Ground raw filter matches to table.column, with noise."""
        filters = []
        miss = min(1.0, self.profile.filter_miss * self.noise)
        for raw in raw_filters:
            if rng.random() < miss:
                continue  # the model simply overlooks the predicate
            spec = self._ground_filter(raw, table, schema, rng, other)
            if spec is not None:
                filters.append(spec)
        return filters

    def _ground_filter(
        self, raw: dict, table: str, schema: SchemaInfo, rng, other: Optional[str]
    ) -> Optional[FilterSpec]:
        tables = [t for t in [table, other] if t]
        if raw["op"] == "dk":
            return self._ground_dk(raw["dk"], tables, schema, rng)
        if raw["col"]:
            for tbl in tables:
                try:
                    column = self._link_column(raw["col"], schema, rng, table=tbl)
                    return FilterSpec(
                        table=tbl,
                        column=column,
                        op=raw["op"],
                        value=raw["value"],
                        value2=raw["value2"],
                    )
                except _LinkError:
                    continue
            # Unknown column phrase (e.g. unfamiliar synonym): value linking.
        return self._ground_by_value(raw, tables, schema, rng)

    def _ground_dk(
        self, phrase: str, tables: list, schema: SchemaInfo, rng
    ) -> Optional[FilterSpec]:
        fact = lookup_dk(phrase, self.profile.dk_coverage)
        if fact is None:
            # The model lacks this piece of domain knowledge.  Rather than
            # silently dropping the condition it guesses one: a word of the
            # phrase may hint the column; otherwise a category filter with a
            # shown value.  Usually wrong in detail, but the query keeps its
            # shape (the partial credit real models get on Spider-DK).
            return self._guess_dk_filter(phrase, tables, schema, rng)
        for tbl in tables:
            for col in schema.columns_of(tbl):
                if _phrase_score(fact.column_phrase, col.name) >= 0.99:
                    return FilterSpec(
                        table=tbl,
                        column=col.name,
                        op=fact.op,
                        value=fact.value,
                        value2=fact.value2,
                        dk_phrase=phrase,
                    )
        return None

    def _guess_dk_filter(
        self, phrase: str, tables: list, schema: SchemaInfo, rng
    ) -> Optional[FilterSpec]:
        phrase_words = {singularize(w) for w in split_words(phrase)}
        best = None
        for tbl in tables:
            for col in schema.columns_of(tbl):
                overlap = len(
                    phrase_words & {singularize(w) for w in split_words(col.name)}
                )
                if overlap and (best is None or overlap > best[0]):
                    best = (overlap, tbl, col)
        if best is None:
            candidates = [
                (tbl, col)
                for tbl in tables
                for col in schema.columns_of(tbl)
                if col.col_type == "text" and not col.is_primary and col.values
            ]
            if not candidates:
                return None
            tbl, col = candidates[int(rng.integers(0, len(candidates)))]
        else:
            _, tbl, col = best
        if not col.values:
            return None
        value = col.values[0]
        if isinstance(value, (int, float)):
            return FilterSpec(table=tbl, column=col.name, op=">", value=value)
        return FilterSpec(table=tbl, column=col.name, op="=", value=value)

    def _ground_by_value(
        self, raw: dict, tables: list, schema: SchemaInfo, rng
    ) -> Optional[FilterSpec]:
        value = raw["value"]
        if value is None:
            return None
        skill = self.profile.value_link_skill / max(self.noise, 1.0)
        candidates = []
        for tbl in tables:
            for col in schema.columns_of(tbl):
                if isinstance(value, str):
                    if any(
                        isinstance(v, str) and v.lower() == value.lower()
                        for v in col.values
                    ):
                        candidates.append((tbl, col.name, 2.0))
                    elif col.col_type == "text" and not col.is_primary:
                        candidates.append((tbl, col.name, 0.5))
                else:
                    if col.col_type in ("integer", "real") and not col.is_primary:
                        closeness = _magnitude_closeness(value, col.values)
                        candidates.append((tbl, col.name, closeness))
        if not candidates:
            return None
        candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
        if rng.random() < skill:
            tbl, column, _ = candidates[0]
        else:
            idx = int(rng.integers(0, len(candidates)))
            tbl, column, _ = candidates[idx]
        return FilterSpec(
            table=tbl, column=column, op=raw["op"], value=value, value2=raw["value2"]
        )

    # -- misc -------------------------------------------------------------------------

    @staticmethod
    def _find_fk(schema: SchemaInfo, child: str, parent: str) -> Optional[list]:
        for t1, c1, t2, c2 in schema.fks:
            if t1 == child and t2 == parent:
                return [t1, c1, t2, c2]
            if t2 == child and t1 == parent:
                return [t2, c2, t1, c1]
        return None


# The two lexical scores are pure in their strings.  Each of a call's n
# samples re-reads the same question against the same schema, so nearly
# every lookup after the first sample's is a hit.


@lru_cache(maxsize=16384)
def _table_score(text: str, table: str) -> float:
    """Share of the table name's words that occur in ``text``."""
    words = {singularize(w) for w in split_words(text)}
    t_words = [singularize(w) for w in split_words(table)]
    if not t_words:
        return 0.0
    return sum(1 for w in t_words if w in words) / len(t_words)


@lru_cache(maxsize=16384)
def _phrase_score(phrase: str, identifier: str) -> float:
    """Word overlap of a question phrase and a schema identifier (1 = same)."""
    p_words = [singularize(w) for w in split_words(phrase)]
    i_words = [singularize(w) for w in split_words(identifier)]
    if not p_words or not i_words:
        return 0.0
    if p_words == i_words:
        return 1.0
    common = set(p_words) & set(i_words)
    return len(common) / max(len(p_words), len(i_words))


_CLAUSE_STARTER = re.compile(
    r"\b(?:whose |that are |not with |related to |with |between )", re.IGNORECASE
)


def _clause_bounds(segment: str) -> list:
    """Start offsets of filter clauses within a segment."""
    bounds = []
    for m in _CLAUSE_STARTER.finditer(segment):
        start = m.start()
        starter = m.group(0).lower()
        prefix = segment[:start]
        # 'with' inside 'not with' is not a separate clause.
        if starter == "with " and prefix.rstrip().endswith("not"):
            continue
        # 'between' inside 'whose X is between a and b' belongs to that clause.
        if starter == "between " and prefix.rstrip().endswith(" is"):
            continue
        # 'and' inside 'between a and b' is a value, not a clause boundary —
        # a starter right after a number that follows 'between' is real, so
        # nothing to do here; numbers never start clauses.
        bounds.append(start)
    return bounds


class _LinkError(Exception):
    """Raised internally when schema linking fails irrecoverably."""


def _parse_value(text: Optional[str]):
    if text is None:
        return None
    text = text.strip()
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _magnitude_closeness(value, shown_values: list) -> float:
    nums = [v for v in shown_values if isinstance(v, (int, float))]
    if not nums:
        return 0.1
    import math

    target = abs(float(value)) + 1.0
    best = min(abs(math.log(target / (abs(float(v)) + 1.0))) for v in nums)
    return 1.0 / (1.0 + best)
