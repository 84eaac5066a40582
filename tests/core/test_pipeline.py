"""End-to-end tests for the PURPLE pipeline."""

import hashlib

import pytest

from repro.core import Purple, PurpleConfig
from repro.eval import TranslationTask, evaluate_approach
from repro.llm import CHATGPT, GPT4, MockLLM
from repro.llm.profiles import LLMProfile

ORACLE_LLM = LLMProfile(
    name="oracle", filter_miss=0, column_confusion=0, synonym_coverage=1,
    dk_coverage=1, value_link_skill=1, prior_gold_affinity=0.5,
    demo_follow=1.0, distinct_prior=0.3, hallucination_rate=0, sample_noise=0,
)


@pytest.fixture(scope="module")
def purple(request):
    train = request.getfixturevalue("train_set")
    pipeline = Purple(
        MockLLM(CHATGPT, seed=1), PurpleConfig(consistency_n=5)
    ).fit(train)
    yield pipeline
    pipeline.close()


class TestPipeline:
    def test_translate_returns_sql(self, purple, dev_set):
        ex = dev_set.examples[0]
        task = TranslationTask(
            question=ex.question, database=dev_set.database(ex.db_id)
        )
        result = purple.translate(task)
        assert result.sql.upper().startswith("SELECT")
        assert result.usage.prompt_tokens > 100

    def test_deterministic(self, purple, dev_set):
        ex = dev_set.examples[1]
        task = TranslationTask(
            question=ex.question, database=dev_set.database(ex.db_id)
        )
        assert purple.translate(task).sql == purple.translate(task).sql

    def test_selection_ranks_gold_composition_first(self, train_set, dev_set):
        """The mechanism behind Table 6's biggest ablation: Algorithm 1
        must place demonstrations with the gold query's composition far
        earlier than chance would."""
        import numpy as np

        from repro.core.selection import select_demonstrations
        from repro.sqlkit.abstraction import abstract_sql

        purple = Purple(
            MockLLM(ORACLE_LLM, seed=2), PurpleConfig(consistency_n=1)
        ).fit(train_set)
        demo_structs = [
            abstract_sql(ex.sql, 3) for ex in train_set.examples
        ]
        ranks = []
        chance_ranks = []
        for ex in dev_set.examples:
            gold_struct = abstract_sql(ex.sql, 3)
            matching = sum(1 for s in demo_structs if s == gold_struct)
            if matching == 0:
                continue
            db = dev_set.database(ex.db_id)
            schema = purple.pruner.prune(ex.question, db)
            skeletons = purple.skeleton_module.predict(ex.question, schema)
            order = select_demonstrations(
                purple.automaton, skeletons, purple.config,
                rng=np.random.default_rng(0),
            )
            rank = next(
                (i for i, idx in enumerate(order)
                 if demo_structs[idx] == gold_struct),
                None,
            )
            if rank is None:
                # The predictor missed the composition entirely — the
                # skeleton-recall limitation, not a selection failure.
                continue
            ranks.append(rank)
            # Expected rank of the first match under a uniform shuffle.
            chance_ranks.append(len(train_set.examples) / (matching + 1))
        assert len(ranks) >= 10, "fixture corpus must cover gold compositions"
        assert np.mean(ranks) < np.mean(chance_ranks) / 2
        purple.close()

    def test_oracle_skeletons_help(self, train_set, dev_set):
        purple = Purple(
            MockLLM(ORACLE_LLM, seed=3), PurpleConfig(consistency_n=3)
        ).fit(train_set)
        base = evaluate_approach(purple, dev_set, limit=40)
        purple.set_oracle_skeletons(dev_set)
        oracle = evaluate_approach(purple, dev_set, limit=40)
        assert oracle.em >= base.em
        purple.close()

    def test_budget_limits_prompt(self, train_set, dev_set):
        small = Purple(
            MockLLM(CHATGPT, seed=1),
            PurpleConfig(consistency_n=1, input_budget=512),
        ).fit(train_set)
        ex = dev_set.examples[0]
        task = TranslationTask(
            question=ex.question, database=dev_set.database(ex.db_id)
        )
        result = small.translate(task)
        assert result.usage.prompt_tokens <= 600
        small.close()

    def test_ablation_flags_accepted(self, train_set, dev_set):
        config = PurpleConfig(
            consistency_n=1, use_pruning=False, use_adaption=False,
            use_selection=False,
        )
        pipeline = Purple(MockLLM(CHATGPT, seed=1), config).fit(train_set)
        ex = dev_set.examples[0]
        result = pipeline.translate(
            TranslationTask(
                question=ex.question, database=dev_set.database(ex.db_id)
            )
        )
        assert result.sql
        pipeline.close()


#: sha256 over PURPLE's (GPT4 profile, default config) output on the first
#: 12 fixture dev tasks: each task's translated SQL and the indices of the
#: demonstrations ``explain`` reports.  Any change to pruning, skeleton
#: prediction, Algorithm-1 selection, prompt packing, adaption or voting
#: moves it.
OUTPUT_PIN = (
    "810c6403a35e311009bf3f35871f83f818497b6aea8b03f709eb608cfac22cd5"
)


def test_default_output_is_pinned(train_set, dev_set):
    pipeline = Purple(MockLLM(GPT4)).fit(train_set)
    digest = hashlib.sha256()
    try:
        for ex in dev_set.examples[:12]:
            task = TranslationTask(
                question=ex.question, database=dev_set.database(ex.db_id)
            )
            indices = [
                d["index"] for d in pipeline.explain(task)["demonstrations"]
            ]
            digest.update(pipeline.translate(task).sql.encode())
            digest.update(b"\0")
            digest.update(",".join(map(str, indices)).encode())
            digest.update(b"\n")
    finally:
        pipeline.close()
    assert digest.hexdigest() == OUTPUT_PIN
