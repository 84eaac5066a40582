"""Zero-shot and random-few-shot baselines.

``ZeroShotSQL`` is ChatGPT-SQL [5] when paired with the ChatGPT profile
and the "Zero-shot (GPT4)" row of Table 4 with the GPT4 profile.
``FewShotRandom`` packs randomly chosen demonstrations to the budget —
the "Few-shot (GPT4)" row.
"""

from __future__ import annotations

from typing import Optional

from repro.api.defaults import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    DEFAULT_VALUES_PER_COLUMN,
)
from repro.api.registry import register
from repro.core.prompt import PromptBuilder
from repro.eval.cost import TokenUsage
from repro.eval.harness import TranslationResult, TranslationTask
from repro.llm.degrade import run_ladder
from repro.llm.interface import LLM, LLMRequest
from repro.llm.promptfmt import build_prompt, render_schema
from repro.spider.dataset import Dataset
from repro.utils.rng import derive_rng, stable_hash


class ZeroShotSQL:
    """Plain zero-shot prompting: schema + question, one completion."""

    def __init__(
        self,
        llm: LLM,
        *,
        values_per_column: int = DEFAULT_VALUES_PER_COLUMN,
    ):
        self.llm = llm
        self.values_per_column = values_per_column
        self.name = f"ZeroShot({llm.name})"

    def fit(self, demo_pool: Optional[Dataset] = None) -> "ZeroShotSQL":
        """No-op — zero-shot prompting has nothing to train."""
        return self

    def translate(self, task: TranslationTask) -> TranslationResult:
        """Translate one NL question to SQL (NL2SQLApproach protocol)."""
        schema_text = render_schema(
            task.database, values_per_column=self.values_per_column
        )
        prompt = build_prompt(schema_text, task.question)
        outcome = run_ladder(
            self.llm, [lambda: LLMRequest(prompt=prompt, n=1)]
        )
        if not outcome.ok:
            return TranslationResult.exhausted(task.database.schema, outcome)
        response = outcome.response
        return TranslationResult(
            sql=response.text,
            usage=TokenUsage(response.prompt_tokens, response.output_tokens, 1),
            retries=outcome.retries,
            events=outcome.events,
        )


class FewShotRandom:
    """Random demonstrations to the token budget, one completion."""

    def __init__(
        self,
        llm: LLM,
        *,
        demo_pool: Optional[Dataset] = None,
        budget: int = DEFAULT_BUDGET,
        seed: int = DEFAULT_SEED,
    ):
        self.llm = llm
        self.budget = budget
        self.seed = seed
        self.name = f"FewShot({llm.name})"
        self.prompt_builder: Optional[PromptBuilder] = None
        if demo_pool is not None:
            self.fit(demo_pool)

    def fit(self, demo_pool: Dataset) -> "FewShotRandom":
        """Prepare the approach from the demonstration pool."""
        self.prompt_builder = PromptBuilder(demo_pool)
        return self

    def translate(self, task: TranslationTask) -> TranslationResult:
        """Translate one NL question to SQL (NL2SQLApproach protocol)."""
        assert self.prompt_builder is not None, "call fit() first"
        schema_text = render_schema(task.database)
        rng = derive_rng(self.seed, "fewshot", stable_hash(task.question))
        prompt = self.prompt_builder.build(
            task.question, schema_text, demo_order=[], budget=self.budget, rng=rng
        )
        outcome = run_ladder(
            self.llm,
            [
                lambda: LLMRequest(prompt=prompt, n=1),
                # Truncation/persistent failure: shed the demonstrations.
                lambda: LLMRequest(
                    prompt=build_prompt(schema_text, task.question), n=1
                ),
            ],
        )
        if not outcome.ok:
            return TranslationResult.exhausted(task.database.schema, outcome)
        response = outcome.response
        return TranslationResult(
            sql=response.text,
            usage=TokenUsage(response.prompt_tokens, response.output_tokens, 1),
            degradation_level=outcome.level,
            retries=outcome.retries,
            events=outcome.events,
        )


@register("zero")
def _make_zero(*, llm=None, train=None, budget=None, consistency_n=None,
               seed=None, **config):
    """ZeroShotSQL ignores the shared budget/consistency/seed knobs."""
    approach = ZeroShotSQL(llm, **config)
    return approach.fit(train) if train is not None else approach


@register("few")
def _make_few(*, llm=None, train=None, budget=None, consistency_n=None,
              seed=None, **config):
    approach = FewShotRandom(
        llm,
        budget=DEFAULT_BUDGET if budget is None else budget,
        seed=DEFAULT_SEED if seed is None else seed,
        **config,
    )
    return approach.fit(train) if train is not None else approach
