"""DAIL-SQL [8]: demonstration selection by masked-question and SQL
similarity.

The selector scores demonstrations by (a) Jaccard similarity between the
*masked* questions (schema terms and values removed) and (b) Jaccard
similarity between the **keyword sets** of the demonstration's SQL and a
preliminary SQL predicted for the task.  §IV-C1's critique applies: the
keyword-set Jaccard ignores operator *order*, so `A EXCEPT B` and
`B EXCEPT A` look identical — which is exactly where PURPLE's automaton
wins.
"""

from __future__ import annotations

from typing import Optional

from repro.api.defaults import DEFAULT_BUDGET, DEFAULT_DAIL_CONSISTENCY_N
from repro.api.registry import register
from repro.core.prompt import PromptBuilder
from repro.eval.cost import TokenUsage
from repro.eval.harness import TranslationResult, TranslationTask
from repro.llm.degrade import run_ladder
from repro.llm.errors import LLMError
from repro.llm.interface import LLM, LLMRequest
from repro.llm.promptfmt import build_prompt, render_schema
from repro.llm.resilient import count_retries
from repro.spider.dataset import Dataset
from repro.sqlkit.errors import SQLError
from repro.sqlkit.skeleton import skeleton_tokens
from repro.utils.text import split_words


def masked_question_words(question: str) -> frozenset:
    """Question words minus numbers and quoted values (DAIL's masking)."""
    text = question
    # Strip quoted values.
    import re

    text = re.sub(r"'[^']*'", " ", text)
    words = {w for w in split_words(text) if not w.isdigit()}
    return frozenset(words)


def sql_keyword_set(sql: str) -> frozenset:
    """Order-insensitive skeleton keyword set of a SQL string."""
    try:
        tokens = skeleton_tokens(sql)
    except SQLError:
        return frozenset()
    return frozenset(t for t in tokens if t not in ("_", ",", "(", ")"))


def jaccard(a: frozenset, b: frozenset) -> float:
    """Set Jaccard similarity (0 when both sets are empty)."""
    if not a and not b:
        return 0.0
    return len(a & b) / max(len(a | b), 1)


class DAILSQL:
    """Similarity-based demonstration selection."""

    def __init__(
        self,
        llm: LLM,
        *,
        demo_pool: Optional[Dataset] = None,
        budget: int = DEFAULT_BUDGET,
        consistency_n: int = DEFAULT_DAIL_CONSISTENCY_N,
    ):
        self.llm = llm
        self.budget = budget
        self.consistency_n = consistency_n
        self.name = f"DAIL-SQL({llm.name})"
        self.prompt_builder: Optional[PromptBuilder] = None
        self._demo_questions: list = []
        self._demo_keywords: list = []
        if demo_pool is not None:
            self.fit(demo_pool)

    def fit(self, demo_pool: Dataset) -> "DAILSQL":
        """Prepare the approach from the demonstration pool."""
        self.prompt_builder = PromptBuilder(demo_pool)
        self._demo_questions = [
            masked_question_words(ex.question) for ex in demo_pool.examples
        ]
        self._demo_keywords = [
            sql_keyword_set(ex.sql) for ex in demo_pool.examples
        ]
        return self

    def translate(self, task: TranslationTask) -> TranslationResult:
        """Translate one NL question to SQL (NL2SQLApproach protocol)."""
        assert self.prompt_builder is not None, "call fit() first"
        schema_text = render_schema(task.database)
        events: list = []

        # Preliminary SQL from a zero-shot call (DAIL's pre-prediction).
        # On failure, selection falls back to question similarity alone.
        pre_prompt = build_prompt(schema_text, task.question)
        pre_usage = TokenUsage()
        pre_keywords = frozenset()
        with count_retries() as pre_tally:
            try:
                preliminary = self.llm.complete(
                    LLMRequest(prompt=pre_prompt, n=1)
                )
            except LLMError as exc:
                events.append(f"{type(exc).__name__}@preliminary")
            else:
                pre_keywords = sql_keyword_set(preliminary.text)
                pre_usage = TokenUsage(
                    preliminary.prompt_tokens, preliminary.output_tokens, 1
                )

        question_words = masked_question_words(task.question)
        scores = [
            jaccard(question_words, q) + jaccard(pre_keywords, k)
            for q, k in zip(self._demo_questions, self._demo_keywords)
        ]
        order = sorted(range(len(scores)), key=lambda i: -scores[i])

        prompt = self.prompt_builder.build(
            task.question, schema_text, demo_order=order, budget=self.budget
        )
        outcome = run_ladder(
            self.llm,
            [
                lambda: LLMRequest(prompt=prompt, n=self.consistency_n),
                # Truncation/persistent failure: shed the demonstrations.
                lambda: LLMRequest(prompt=pre_prompt, n=1),
            ],
        )
        events.extend(outcome.events)
        retries = pre_tally.retries + outcome.retries
        if not outcome.ok:
            return TranslationResult.exhausted(
                task.database.schema, outcome, usage=pre_usage,
                retries=retries, events=tuple(events),
            )
        response = outcome.response
        from repro.core.consistency import consistency_vote
        from repro.schema import SQLiteExecutor

        with SQLiteExecutor() as executor:
            final = consistency_vote(response.texts, executor, task.database)
        usage = TokenUsage(
            prompt_tokens=pre_usage.prompt_tokens + response.prompt_tokens,
            output_tokens=pre_usage.output_tokens + response.output_tokens,
            calls=pre_usage.calls + 1,
        )
        return TranslationResult(
            sql=final,
            usage=usage,
            degradation_level=outcome.level,
            retries=retries,
            events=tuple(events),
        )


@register("dail")
def _make_dail(*, llm=None, train=None, budget=None, consistency_n=None,
               seed=None, **config):
    """DAIL-SQL's selection is deterministic, so ``seed`` is unused."""
    approach = DAILSQL(
        llm,
        budget=DEFAULT_BUDGET if budget is None else budget,
        consistency_n=(
            DEFAULT_DAIL_CONSISTENCY_N if consistency_n is None
            else consistency_n
        ),
        **config,
    )
    return approach.fit(train) if train is not None else approach
