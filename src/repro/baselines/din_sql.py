"""DIN-SQL [2]: decomposed in-context learning with chain-of-thought.

A *static* pool of curated demonstrations (one per query-pattern family,
drawn once from the training corpus) is prepended to every prompt with a
chain-of-thought instruction; a second self-correction call re-examines
the first answer.  The demonstrations teach decomposition and intent
handling, but — the paper's point — being static, they rarely contain the
operator composition the task at hand requires.
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import register
from repro.eval.cost import TokenUsage
from repro.eval.harness import TranslationResult, TranslationTask
from repro.llm.degrade import run_ladder
from repro.llm.errors import LLMError
from repro.llm.interface import LLM, LLMRequest
from repro.llm.promptfmt import build_prompt, render_demo, render_schema
from repro.llm.resilient import count_retries
from repro.plm.labels import used_schema_items
from repro.spider.dataset import Dataset

COT_INSTRUCTIONS = (
    "Let's think step by step: first find the relevant tables and columns, "
    "then decompose the question into sub-problems, then write the SQLite "
    "query. Use only the provided schema."
)

# One static demonstration per pattern family, mirroring DIN-SQL's
# easy/non-nested/nested prompt sections.
_PATTERN_FAMILIES = (
    "list",
    "count",
    "aggregate",
    "join_list",
    "group_count",
    "group_having",
    "superlative",
    "exclusion",
    "intersect",
    "compare_avg",
)


class DINSQL:
    """Few-shot CoT with a fixed demonstration set and self-correction."""

    def __init__(self, llm: LLM, *, demo_pool: Optional[Dataset] = None):
        self.llm = llm
        self.name = f"DIN-SQL({llm.name})"
        self._static_demos: list = []
        if demo_pool is not None:
            self.fit(demo_pool)

    def fit(self, demo_pool: Dataset) -> "DINSQL":
        """Curate the static demonstration set (first example per family)."""
        chosen = {}
        for ex in demo_pool.examples:
            kind = ex.intent.kind
            if kind in _PATTERN_FAMILIES and kind not in chosen:
                chosen[kind] = ex
        self._static_demos = []
        for kind in _PATTERN_FAMILIES:
            ex = chosen.get(kind)
            if ex is None:
                continue
            database = demo_pool.database(ex.db_id)
            used_tables, used_columns = used_schema_items(ex.sql, database.schema)
            keep = {
                t: [c for tt, c in used_columns if tt == t] for t in used_tables
            }
            pruned = database.schema.subset(keep) if keep else database.schema
            schema_text = render_schema(database, pruned)
            self._static_demos.append(render_demo(schema_text, ex.question, ex.sql))
        return self

    def translate(self, task: TranslationTask) -> TranslationResult:
        """Translate one NL question to SQL (NL2SQLApproach protocol)."""
        schema_text = render_schema(task.database)
        prompt = build_prompt(
            schema_text,
            task.question,
            demos=self._static_demos,
            instructions=COT_INSTRUCTIONS,
        )
        outcome = run_ladder(
            self.llm,
            [
                lambda: LLMRequest(prompt=prompt, n=1),
                # Truncation/persistent failure: drop the static
                # demonstrations and the CoT instruction.
                lambda: LLMRequest(
                    prompt=build_prompt(schema_text, task.question), n=1
                ),
            ],
        )
        if not outcome.ok:
            return TranslationResult.exhausted(task.database.schema, outcome)
        first = outcome.response
        events = list(outcome.events)
        # Self-correction round: the model re-examines its own answer.
        correction_prompt = (
            prompt
            + f"\nPrevious answer: {first.text}\n"
            "Check the answer for schema and logic errors and answer again."
        )
        with count_retries() as correction:
            try:
                second = self.llm.complete(
                    LLMRequest(prompt=correction_prompt, n=1)
                )
            except LLMError as exc:
                # The first answer stands when the correction round fails.
                events.append(f"{type(exc).__name__}@correction")
                second = first
        if second is first:
            usage = TokenUsage(first.prompt_tokens, first.output_tokens, 1)
        else:
            usage = TokenUsage(
                prompt_tokens=first.prompt_tokens + second.prompt_tokens,
                output_tokens=first.output_tokens + second.output_tokens,
                calls=2,
            )
        return TranslationResult(
            sql=second.text,
            usage=usage,
            degradation_level=outcome.level,
            retries=outcome.retries + correction.retries,
            events=tuple(events),
        )


@register("din")
def _make_din(*, llm=None, train=None, budget=None, consistency_n=None,
              seed=None, **config):
    """DIN-SQL's static demo curation ignores the shared tuning knobs."""
    approach = DINSQL(llm, **config)
    return approach.fit(train) if train is not None else approach
