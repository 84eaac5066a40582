"""Tests for the baseline approaches."""

import hashlib

import pytest

from repro.baselines import (
    C3,
    DAILSQL,
    DINSQL,
    FewShotRandom,
    PLMSeq2SQL,
    ZeroShotSQL,
)
from repro.baselines.c3 import lexical_prune
from repro.baselines.dail_sql import jaccard, masked_question_words, sql_keyword_set
from repro.eval import TranslationTask, evaluate_approach
from repro.llm import (
    CHATGPT,
    GPT4,
    BreakerPolicy,
    FakeClock,
    FaultPolicy,
    FaultyLLM,
    MockLLM,
    ResilientLLM,
    RetryPolicy,
)


#: sha256 of PLM-seq2seq's float32 skeleton-predictor weights on the
#: fixture corpus: 12 epochs of plain SGD, seed 0, the fit its Table-4
#: row is calibrated with.
PLM_SKELETON_WEIGHTS_SHA256 = (
    "df183256cbe36921b61997943513bedceda408670bcb8091931a221735d1e64a"
)


def first_task(dev_set):
    ex = dev_set.examples[0]
    return TranslationTask(
        question=ex.question, database=dev_set.database(ex.db_id)
    )


class TestZeroFew:
    def test_zero_shot_returns_sql(self, dev_set):
        result = ZeroShotSQL(MockLLM(CHATGPT, seed=1)).translate(first_task(dev_set))
        assert result.sql.upper().startswith("SELECT")
        assert result.usage.calls == 1

    def test_few_shot_uses_more_tokens(self, train_set, dev_set):
        zero = ZeroShotSQL(MockLLM(GPT4, seed=1))
        few = FewShotRandom(MockLLM(GPT4, seed=1), demo_pool=train_set)
        task = first_task(dev_set)
        assert (
            few.translate(task).usage.prompt_tokens
            > zero.translate(task).usage.prompt_tokens * 3
        )

    def test_few_shot_requires_fit(self, dev_set):
        with pytest.raises(AssertionError):
            FewShotRandom(MockLLM(GPT4)).translate(first_task(dev_set))


class TestC3:
    def test_produces_sql_with_voting(self, dev_set):
        c3 = C3(MockLLM(CHATGPT, seed=1), consistency_n=5)
        result = c3.translate(first_task(dev_set))
        assert result.sql.upper().startswith("SELECT")
        c3.close()

    def test_lexical_prune_keeps_mentioned_table(self, dev_set):
        ex = dev_set.examples[0]
        db = dev_set.database(ex.db_id)
        pruned = lexical_prune(ex.question, db)
        assert pruned.tables
        assert set(pruned.table_names()) <= set(db.schema.table_names())

    def test_lexical_prune_keeps_neighbours(self, dev_set):
        db = dev_set.database(dev_set.db_ids()[0])
        parent = db.schema.foreign_keys[0].dst_table
        child = db.schema.foreign_keys[0].src_table
        question = f"How many {child}s are there?"
        pruned = lexical_prune(question, db)
        assert {parent, child} <= {t.key for t in pruned.tables}


class TestDINSQL:
    def test_static_demos_curated(self, train_set):
        din = DINSQL(MockLLM(GPT4, seed=1), demo_pool=train_set)
        assert len(din._static_demos) >= 6

    def test_two_llm_calls(self, train_set, dev_set):
        din = DINSQL(MockLLM(GPT4, seed=1), demo_pool=train_set)
        result = din.translate(first_task(dev_set))
        assert result.usage.calls == 2
        assert result.sql


class TestDAILSQL:
    def test_masking_removes_values(self):
        words = masked_question_words("Show doctors whose salary is 90 and 'Bob'?")
        assert "90" not in words and "bob" not in words
        assert "salary" in words

    def test_keyword_set_order_insensitive(self):
        a = sql_keyword_set("SELECT a FROM t EXCEPT SELECT b FROM u")
        b = sql_keyword_set("SELECT b FROM u EXCEPT SELECT a FROM t")
        assert a == b  # precisely the limitation §IV-C1 points out

    def test_jaccard(self):
        assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0
        assert jaccard(frozenset("a"), frozenset("b")) == 0.0
        assert jaccard(frozenset(), frozenset()) == 0.0

    def test_translates(self, train_set, dev_set):
        dail = DAILSQL(
            MockLLM(GPT4, seed=1), demo_pool=train_set, consistency_n=2
        )
        result = dail.translate(first_task(dev_set))
        assert result.sql.upper().startswith("SELECT")
        assert result.usage.calls == 2  # preliminary + final

    def test_total_outage_keeps_preliminary_retries(self, train_set, dev_set):
        """The best-effort answer counts the preliminary call's retries
        and failure next to the ladder's."""
        llm = ResilientLLM(
            FaultyLLM(
                MockLLM(GPT4, seed=1), FaultPolicy(server_error=1.0, seed=0)
            ),
            retry=RetryPolicy(max_attempts=2, deadline=None),
            breaker=BreakerPolicy(failure_threshold=100),
            clock=FakeClock(),
        )
        dail = DAILSQL(llm, demo_pool=train_set, consistency_n=2)
        result = dail.translate(first_task(dev_set))
        assert result.best_effort
        assert result.degradation_level == 2
        # One retry each: the preliminary call and both ladder rungs.
        assert result.retries == 3
        assert len(result.events) == 3
        assert result.events[0].endswith("@preliminary")


class TestPLMSeq2SQL:
    def test_translates_without_llm(self, train_set, dev_set):
        plm = PLMSeq2SQL(demo_pool=train_set)
        result = plm.translate(first_task(dev_set))
        assert result.sql.upper().startswith("SELECT")
        assert result.usage.total_tokens == 0

    def test_high_em_on_dev(self, train_set, dev_set):
        plm = PLMSeq2SQL(demo_pool=train_set)
        report = evaluate_approach(plm, dev_set, limit=40)
        assert report.em > 0.4  # fine-tuned family: strong EM even tiny-scale

    def test_keeps_its_plain_sgd_skeleton_fit(self, train_set):
        plm = PLMSeq2SQL(demo_pool=train_set)
        weights = plm.skeleton_module.predictor.weights
        digest = hashlib.sha256(weights.tobytes()).hexdigest()
        assert digest == PLM_SKELETON_WEIGHTS_SHA256


class TestRelativeOrdering:
    """The qualitative Table-4 shape must hold even on the small fixture."""

    def test_purple_beats_zero_shot(self, train_set, dev_set):
        from repro.core import Purple, PurpleConfig

        zero = ZeroShotSQL(MockLLM(CHATGPT, seed=1))
        purple = Purple(
            MockLLM(CHATGPT, seed=1), PurpleConfig(consistency_n=5)
        ).fit(train_set)
        r_zero = evaluate_approach(zero, dev_set)
        r_purple = evaluate_approach(purple, dev_set)
        assert r_purple.em > r_zero.em
        assert r_purple.ex > r_zero.ex
        purple.close()
