"""Behavioural tests for the simulated LLM."""

import sys

import numpy as np
import pytest

from repro.core.prompt import PromptBuilder
from repro.llm import (
    CHATGPT,
    GPT4,
    LLMRequest,
    MockLLM,
    build_prompt,
    render_demo,
    render_schema,
)
from repro.llm.profiles import LLMProfile, profile_by_name
from repro.llm.tokenizer import count_tokens
from repro.repair import RepairDiagnosis, build_repair_prompt
from repro.schema import Database
from repro.schema.errorinfo import ErrorInfo
from repro.spider.domains import domain_by_name
from repro.sqlkit import parse_sql
from repro.sqlkit.errors import SQLError

ORACLE = LLMProfile(
    name="oracle", filter_miss=0, column_confusion=0, synonym_coverage=1,
    dk_coverage=1, value_link_skill=1, prior_gold_affinity=0.5,
    demo_follow=1.0, distinct_prior=0.3, hallucination_rate=0, sample_noise=0,
)


@pytest.fixture(scope="module")
def db():
    return domain_by_name("soccer").instantiate(0, seed=3)


def ask(llm, db, question, demos=(), n=1, instructions=""):
    prompt = build_prompt(
        render_schema(db), question, demos=list(demos), instructions=instructions
    )
    return llm.complete(LLMRequest(prompt=prompt, n=n))


class TestBasicBehaviour:
    def test_returns_sql_text(self, db):
        resp = ask(MockLLM(ORACLE), db, "How many players are there?")
        assert resp.text == "SELECT COUNT(*) FROM player"

    def test_deterministic_for_same_prompt(self, db):
        llm = MockLLM(CHATGPT, seed=5)
        a = ask(llm, db, "What are the name of players?")
        b = ask(llm, db, "What are the name of players?")
        assert a.texts == b.texts

    def test_different_seeds_can_differ(self, db):
        q = "Which teams do not have any players? Show their city?"
        outputs = {
            ask(MockLLM(CHATGPT, seed=s), db, q).text for s in range(8)
        }
        assert len(outputs) > 1

    def test_n_samples_returned(self, db):
        resp = ask(MockLLM(CHATGPT), db, "How many teams are there?", n=7)
        assert len(resp.texts) == 7

    def test_token_accounting(self, db):
        resp = ask(MockLLM(ORACLE), db, "How many players are there?", n=3)
        assert resp.prompt_tokens > 50
        assert resp.output_tokens > 0

    def test_garbage_prompt_safe(self):
        resp = MockLLM(ORACLE).complete(LLMRequest(prompt="hello"))
        assert resp.text

    def test_most_outputs_parse(self, db):
        llm = MockLLM(CHATGPT, seed=0)
        questions = [
            "How many players are there?",
            "What are the name of players whose age is greater than 20?",
            "Which team has the most players? Show its team name?",
            "Which teams do not have any players? Show their team name?",
        ]
        ok = 0
        for q in questions:
            try:
                parse_sql(ask(llm, db, q).text)
                ok += 1
            except SQLError:
                pass
        assert ok >= 3


class TestInContextLearning:
    """The core mechanism: skeleton-matched demonstrations steer the
    operator composition."""

    def _demo(self, db, sql):
        return render_demo(render_schema(db), "demo question?", sql)

    def _steer_rate(self, db, question, demo, marker, seeds=12):
        hits = 0
        for seed in range(seeds):
            out = ask(MockLLM(ORACLE, seed=seed), db, question, demos=[demo]).text
            hits += marker in out
        return hits / seeds

    def test_except_demo_steers_exclusion(self, db):
        question = "Which teams do not have any players? Show their city?"
        except_demo = self._demo(
            db,
            "SELECT city FROM team EXCEPT SELECT T1.city FROM team AS T1 "
            "JOIN player AS T2 ON T1.id = T2.team_id",
        )
        assert self._steer_rate(db, question, except_demo, "EXCEPT") >= 0.7

    def test_not_in_demo_steers_exclusion(self, db):
        question = "Which teams do not have any players? Show their city?"
        not_in_demo = self._demo(
            db,
            "SELECT city FROM team WHERE id NOT IN (SELECT team_id FROM player)",
        )
        assert self._steer_rate(db, question, not_in_demo, "NOT IN") >= 0.7

    def test_max_subquery_demo_steers_superlative(self, db):
        question = "What is the name of the player with the highest goal count?"
        demo = self._demo(
            db, "SELECT name FROM player WHERE goals = (SELECT MAX(goals) FROM player)"
        )
        assert self._steer_rate(db, question, demo, "MAX(") >= 0.7

    def test_earlier_demo_outweighs_later(self, db):
        question = "Which teams do not have any players? Show their city?"
        except_demo = self._demo(
            db,
            "SELECT city FROM team EXCEPT SELECT T1.city FROM team AS T1 "
            "JOIN player AS T2 ON T1.id = T2.team_id",
        )
        not_in_demo = self._demo(
            db,
            "SELECT city FROM team WHERE id NOT IN (SELECT team_id FROM player)",
        )
        hits = 0
        for seed in range(12):
            out = ask(
                MockLLM(ORACLE, seed=seed), db, question,
                demos=[except_demo, not_in_demo],
            ).text
            hits += "EXCEPT" in out
        # With conflicting demonstrations, the earlier (higher-priority)
        # one must at least neutralize the model's NOT-IN-leaning prior.
        assert hits >= 4


class TestInstructions:
    def test_cot_instruction_parsed(self, db):
        from repro.llm.mock_llm import _instruction_effects

        effects = _instruction_effects("Let's think step by step.")
        assert effects.get("cot") is True

    def test_column_discipline_reduces_hallucination_scale(self):
        from repro.llm.mock_llm import _instruction_effects

        effects = _instruction_effects("Use only the provided columns.")
        assert effects["hallucination_scale"] < 1.0


class TestProfiles:
    def test_lookup(self):
        assert profile_by_name("chatgpt") is CHATGPT
        assert profile_by_name("GPT4") is GPT4
        with pytest.raises(KeyError):
            profile_by_name("claude")

    def test_gpt4_stronger_understanding(self):
        assert GPT4.column_confusion < CHATGPT.column_confusion
        assert GPT4.hallucination_rate < CHATGPT.hallucination_rate
        assert GPT4.synonym_coverage > CHATGPT.synonym_coverage


class TestThreadSafety:
    QUESTIONS = (
        "How many players are there?",
        "What are the name of players whose age is greater than 20?",
        "Show the name of players whose goal count is between 3 and 9?",
        "Which teams do not have any players? Show their city?",
        "Which team has the most players? Show its name?",
        "What is the name of the player with the highest goal count?",
    )

    def test_shared_instance_matches_serial_calls(self, db):
        # repro serve threads and evaluate(workers>1) share one MockLLM:
        # every per-call value must stay call-local.
        from concurrent.futures import ThreadPoolExecutor

        from repro.llm.mock_llm import _demo_skeleton
        from repro.llm.understanding import _phrase_score, _table_score

        demo = render_demo(
            render_schema(db), "Which teams have no players at all?",
            "SELECT city FROM team WHERE id NOT IN (SELECT team_id FROM player)",
        )
        # Each question with and without the demonstration: the same
        # intent then has two different candidate distributions.
        prompts = [
            build_prompt(render_schema(db), q, demos=demos)
            for q in self.QUESTIONS
            for demos in ([], [demo])
        ]
        llm = MockLLM(CHATGPT, seed=4)

        def texts(prompt):
            return llm.complete(LLMRequest(prompt=prompt, n=8)).texts

        serial = [texts(p) for p in prompts]
        for cached in (_demo_skeleton, _phrase_score, _table_score):
            cached.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(texts, prompts * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 4


def _immutable(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(v) for v in value)
    return value is None or isinstance(value, (str, int, float))


class TestCachedHelpers:
    """Cached entries are shared by every caller, so they must be frozen,
    and every cache must be bounded."""

    def test_demo_skeleton_is_immutable(self):
        from repro.llm.mock_llm import _demo_skeleton

        skeleton = _demo_skeleton(
            "SELECT name FROM player WHERE age >= 30",
            "What are the name of players whose age is at least 30?",
        )
        keywords, structure, cues = skeleton
        assert isinstance(keywords, tuple) and isinstance(structure, tuple)
        assert isinstance(cues, frozenset) and cues
        assert _immutable(skeleton)
        assert _demo_skeleton("SELECT 'unterminated", "q?") is None

    def test_scores_are_floats(self):
        from repro.llm.understanding import _phrase_score, _table_score

        assert _phrase_score("goal count", "goals") == 0.5
        assert _phrase_score("teams", "team") == 1.0
        assert _table_score("how many players are there", "player") == 1.0
        for value in (_phrase_score("x", "y"), _table_score("a b", "c")):
            assert isinstance(value, float)

    def test_every_cache_is_bounded(self):
        # Every lru_cache anywhere in the package, module-level or on a
        # class: serve processes run for days.
        import importlib
        import pkgutil

        import repro

        modules = [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")  # importing runs the CLI
        ]
        owners = list(modules) + [
            obj
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        caches = [
            obj
            for owner in owners
            for obj in vars(owner).values()
            if callable(getattr(obj, "cache_info", None))
        ]
        assert {c.__name__ for c in caches} >= {
            "_demo_skeleton", "_phrase_score", "_table_score", "_count_section",
        }
        for cache in caches:
            assert cache.cache_info().maxsize is not None, cache.__name__

    def test_call_memos_stay_off_the_shared_instance(self, db):
        llm = MockLLM(CHATGPT, seed=4)
        before = dict(vars(llm)), dict(vars(llm._understander))
        ask(llm, db, "What are the name of players whose age is at least 20?", n=6)
        assert (dict(vars(llm)), dict(vars(llm._understander))) == before


class TestPromptTokens:
    """``prompt_tokens`` is counted per blank-line-separated section: it
    must equal counting the whole prompt at once."""

    def _check(self, prompt):
        resp = MockLLM(CHATGPT, seed=2).complete(LLMRequest(prompt=prompt, n=2))
        assert resp.prompt_tokens == count_tokens(prompt)

    def test_prompt_builder_prompts(self, train_set, dev_set):
        builder = PromptBuilder(train_set)
        rng = np.random.default_rng(0)
        for ex in dev_set.examples[:6]:
            task_schema = render_schema(dev_set.database(ex.db_id))
            for budget in (256, 1024, 3072):
                self._check(
                    builder.build(
                        ex.question, task_schema, demo_order=[3, 1, 4],
                        budget=budget, rng=rng, instructions="Think step by step.",
                    )
                )

    def test_repair_prompt(self, db):
        diagnosis = RepairDiagnosis(
            sql="SELECT nope FROM player",
            error=ErrorInfo("no-such-column", "schema", "no such column: nope", "nope"),
        )
        prompt = build_repair_prompt(
            diagnosis, render_schema(db), "How many players are there?"
        )
        assert "### Repair" in prompt
        self._check(prompt)

    def test_blank_lines_inside_values_and_at_the_ends(self, db):
        table = db.schema.tables[0]
        col = next(i for i, c in enumerate(table.columns) if c.col_type == "text")
        rows = dict(db.rows)
        first, *rest = rows[table.key]
        rows[table.key] = [
            first[:col] + ("\n\nfirst\n\n\n second \n\n",) + first[col + 1 :],
            *rest,
        ]
        schema_text = render_schema(Database(schema=db.schema, rows=rows))
        assert "\n\nfirst" in schema_text
        prompt = build_prompt(schema_text, "How many players are there?")
        for text in (prompt, "\n\n" + prompt + "\n\n", "\n\n\n" + prompt):
            self._check(text)


class TestCdfDraw:
    """A sample draws its candidate by searching a precomputed CDF; it
    must make exactly the draw ``Generator.choice(len, p=p)`` makes."""

    DISTRIBUTIONS = [
        [0.5, 0.5],
        [0.3, 0.7],
        [1e-12, 1.0 - 1e-12],
        [1.0 - 1e-12, 1e-12],
        [0.25, 1e-300, 0.25, 0.5],
        [0.999, 0.0005, 0.0005],
        [1e-9, 1e-9, 1.0, 1e-9],
    ]

    def _distributions(self):
        rng = np.random.default_rng(0)
        out = [np.array(p, dtype=float) for p in self.DISTRIBUTIONS]
        for size in (2, 3, 5, 12, 40):
            for _ in range(5):
                raw = rng.dirichlet(np.full(size, 0.3)) * rng.uniform(0.5, 50)
                out.append(raw)
        # Normalized as the simulator normalizes its boosted priors.
        return [probs / probs.sum() for probs in out]

    def test_matches_generator_choice(self):
        from repro.llm.mock_llm import _cdf, _draw_index

        for probs in self._distributions():
            cdf = _cdf(probs)
            for seed in range(300):
                ours = np.random.default_rng(seed)
                theirs = np.random.default_rng(seed)
                assert _draw_index(cdf, ours) == int(
                    theirs.choice(len(probs), p=probs)
                )
                # The two consumed the same variates.
                assert ours.random() == theirs.random()


class TestStyleTransforms:
    """The style rewrites clone only when they apply and never touch
    their input."""

    def _check(self, transform, sql, expected):
        from repro.sqlkit.render import render_sql

        query = parse_sql(sql)
        before = render_sql(query)
        out = transform(query)
        assert render_sql(query) == before
        assert (None if out is None else render_sql(out)) == expected

    def test_shift_boundaries(self):
        from repro.llm.mock_llm import _shift_boundaries

        self._check(
            _shift_boundaries,
            "SELECT name FROM player WHERE age >= 30 AND goals < 5",
            "SELECT name FROM player WHERE age > 29 AND goals <= 4",
        )
        self._check(
            _shift_boundaries, "SELECT name FROM player WHERE age = 30", None
        )

    def test_decompose_between(self):
        from repro.llm.mock_llm import _decompose_between

        self._check(
            _decompose_between,
            "SELECT name FROM player WHERE age BETWEEN 20 AND 30",
            "SELECT name FROM player WHERE age >= 20 AND age <= 30",
        )
        self._check(
            _decompose_between,
            "SELECT name FROM player WHERE goals > 1 AND age BETWEEN 20 AND 30",
            "SELECT name FROM player WHERE goals > 1 AND age >= 20 AND age <= 30",
        )
        self._check(
            _decompose_between,
            "SELECT name FROM player WHERE goals > 1 OR age BETWEEN 20 AND 30",
            None,
        )
