"""Tests for the NL understander (noise-free profile unless stated)."""

import numpy as np
import pytest

from repro.llm import build_prompt, parse_prompt, render_schema
from repro.llm.profiles import CHATGPT, LLMProfile
from repro.llm.understanding import Understander
from repro.spider.domains import domain_by_name

ORACLE = LLMProfile(
    name="oracle", filter_miss=0, column_confusion=0, synonym_coverage=1,
    dk_coverage=1, value_link_skill=1, prior_gold_affinity=0.5,
    demo_follow=1.0, distinct_prior=0.3, hallucination_rate=0, sample_noise=0,
)


@pytest.fixture(scope="module")
def schema():
    db = domain_by_name("soccer").instantiate(0, seed=3)
    return parse_prompt(build_prompt(render_schema(db), "q")).task_schema


@pytest.fixture
def understander():
    return Understander(ORACLE)


def understand(u, schema, question):
    return u.understand(question, schema, np.random.default_rng(0)).intent


class TestKindDetection:
    @pytest.mark.parametrize(
        "question,kind",
        [
            ("What are the name of players?", "list"),
            ("Show the age of players whose goal count is greater than 10?",
             "filtered_list"),
            ("How many teams are there?", "count"),
            ("How many different positions are there among players?",
             "distinct_count"),
            ("What is the count of distinct positions among players?",
             "distinct_count"),
            ("What is the average age of players?", "aggregate"),
            ("List the name of players sorted by goal count in descending order?",
             "ordered_list"),
            ("Show the name of the 3 players with the highest goal count?",
             "top_k"),
            ("What is the name of the player with the highest goal count?",
             "superlative"),
            ("What is the name of the player whose goal count is the maximum?",
             "superlative"),
            ("Which players have a goal count above the average? Show their name?",
             "compare_avg"),
            ("For each of the players, show its name and the name of its team?",
             "join_list"),
            ("Show the name of players of teams whose city is 'Rome'?",
             "join_filtered"),
            ("Show the name of players belonging to teams whose city is 'Rome'?",
             "join_filtered"),
            ("For each team, show its team name and the number of players it has?",
             "group_count"),
            ("Count the players of each team. Show the team name and the count?",
             "group_count"),
            ("Which teams have at least 3 players? Show their team name?",
             "group_having"),
            ("Which teams have more than 2 players? Show their team name?",
             "group_having"),
            ("Which team has the most players? Show its team name?",
             "group_argmax"),
            ("Which team has the greatest number of players? Show its team name?",
             "group_argmax"),
            ("Which teams do not have any players? Show their team name?",
             "exclusion"),
            ("Which teams have no players at all? Show their team name?",
             "exclusion"),
            ("Which positions have both players whose age is greater than 30 "
             "and players whose age is less than 20?", "intersect"),
            ("What are the name of players whose age is less than 20 or whose "
             "goal count is greater than 30?", "union_op"),
        ],
    )
    def test_kind(self, understander, schema, question, kind):
        intent = understand(understander, schema, question)
        assert intent is not None
        assert intent.kind == kind


class TestSlotExtraction:
    def test_filter_value_and_casing(self, understander, schema):
        intent = understand(
            understander, schema,
            "Show the name of players of teams whose city is 'Rome'?",
        )
        f = intent.filters[0]
        assert (f.table, f.column, f.op, f.value) == ("team", "city", "=", "Rome")

    def test_having_more_than_normalized(self, understander, schema):
        intent = understand(
            understander, schema,
            "Which teams have more than 2 players? Show their team name?",
        )
        assert intent.having == ["COUNT", ">=", 3]

    def test_top_k_limit(self, understander, schema):
        intent = understand(
            understander, schema,
            "Show the name of the 4 players with the lowest age?",
        )
        assert intent.limit == 4
        assert intent.order[2] == "ASC"

    def test_between_filter(self, understander, schema):
        intent = understand(
            understander, schema,
            "Show the name of players whose age is between 20 and 30?",
        )
        f = intent.filters[0]
        assert (f.op, f.value, f.value2) == ("between", 20, 30)

    def test_two_filters(self, understander, schema):
        intent = understand(
            understander, schema,
            "Show the name of players whose age is greater than 20 and "
            "whose position is 'Forward'?",
        )
        assert len(intent.filters) == 2

    def test_distinct_explicit(self, understander, schema):
        intent = understand(
            understander, schema, "What are the different cities of teams?"
        )
        assert intent.distinct_explicit

    def test_fk_resolved(self, understander, schema):
        intent = understand(
            understander, schema,
            "Which teams do not have any players? Show their team name?",
        )
        assert intent.fk == ["player", "team_id", "team", "id"]

    def test_dk_phrase_resolved_with_full_coverage(self, understander, schema):
        intent = understand(
            understander, schema,
            "How many players are there that are goalkeepers?",
        )
        assert intent.filters
        assert intent.filters[0].column == "position"
        assert intent.filters[0].value == "Goalkeeper"

    def test_union_second_branch(self, understander, schema):
        intent = understand(
            understander, schema,
            "What are the name of players whose age is less than 20 or "
            "whose goal count is greater than 30?",
        )
        assert len(intent.filters) == 1
        assert len(intent.second_filters) == 1


class TestNoise:
    def test_zero_dk_coverage_drops_fact(self, schema):
        profile = LLMProfile(
            name="nodk", filter_miss=0, column_confusion=0, synonym_coverage=1,
            dk_coverage=0.0, value_link_skill=1, prior_gold_affinity=0.5,
            demo_follow=1, distinct_prior=0.3, hallucination_rate=0,
            sample_noise=0,
        )
        u = Understander(profile)
        intent = understand(
            u, schema, "How many players are there that are goalkeepers?"
        )
        assert intent is not None
        # The model lacks the fact: it may guess a filter, but it cannot
        # have resolved the DK phrase itself.
        assert not any(f.dk_phrase for f in intent.filters)

    def test_fallback_on_garbage(self, understander, schema):
        result = understander.understand(
            "lorem ipsum dolor sit amet", schema, np.random.default_rng(0)
        )
        assert result.confidence < 0.5
        assert result.intent is None or result.intent.kind == "list"

    def test_full_filter_miss_drops_all(self, schema):
        profile = LLMProfile(
            name="blind", filter_miss=1.0, column_confusion=0,
            synonym_coverage=1, dk_coverage=1, value_link_skill=1,
            prior_gold_affinity=0.5, demo_follow=1, distinct_prior=0.3,
            hallucination_rate=0, sample_noise=0,
        )
        u = Understander(profile)
        intent = understand(
            u, schema, "Show the name of players whose age is greater than 20?"
        )
        assert intent is not None and not intent.filters

    def test_understand_leaves_no_per_call_state(self, schema):
        # One Understander serves concurrent callers (serve threads, eval
        # workers), so a call's noise scale must not be stored on it.
        u = Understander(CHATGPT)
        before = dict(vars(u))
        u.understand(
            "Show the name of players whose age is greater than 20?",
            schema, np.random.default_rng(0), noise_scale=2.5,
        )
        assert vars(u) == before
