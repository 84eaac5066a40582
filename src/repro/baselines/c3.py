"""C3 [11]: calibrated zero-shot prompting.

Three C's: Clear Prompting (lexically pruned schema), Calibration with
Hints (hand-crafted instructions steering SQL style away from common
ChatGPT biases), and Consistent Output (execution-consistency voting).
No demonstrations, no fine-tuned models.
"""

from __future__ import annotations

from typing import Optional

from repro.api.defaults import DEFAULT_CONSISTENCY_N, DEFAULT_VALUES_PER_COLUMN
from repro.api.registry import register
from repro.core.consistency import consistency_vote
from repro.eval.cost import TokenUsage
from repro.eval.harness import TranslationResult, TranslationTask
from repro.llm.degrade import run_ladder
from repro.llm.interface import LLM, LLMRequest
from repro.llm.promptfmt import build_prompt, render_schema
from repro.schema import Database, Schema, SchemaGraph, SQLiteExecutor
from repro.spider.dataset import Dataset
from repro.utils.text import singularize, split_words

C3_INSTRUCTIONS = (
    "Write a valid SQLite query for the question. "
    "Use only the tables and columns provided in the schema. "
    "Avoid unnecessary DISTINCT keywords and extra columns in SELECT."
)


class C3:
    """Calibrated zero-shot NL2SQL."""

    def __init__(
        self,
        llm: LLM,
        *,
        consistency_n: int = DEFAULT_CONSISTENCY_N,
        values_per_column: int = DEFAULT_VALUES_PER_COLUMN,
    ):
        self.llm = llm
        self.consistency_n = consistency_n
        self.values_per_column = values_per_column
        self.name = f"C3({llm.name})"
        self.executor = SQLiteExecutor()

    def fit(self, demo_pool: Optional[Dataset] = None) -> "C3":
        """No-op — C3 is zero-shot by design."""
        return self

    def translate(self, task: TranslationTask) -> TranslationResult:
        """Translate one NL question to SQL (NL2SQLApproach protocol)."""
        pruned = lexical_prune(task.question, task.database)
        schema_text = render_schema(
            task.database, pruned, values_per_column=self.values_per_column
        )
        prompt = build_prompt(
            schema_text, task.question, instructions=C3_INSTRUCTIONS
        )
        outcome = run_ladder(
            self.llm,
            [
                lambda: LLMRequest(prompt=prompt, n=self.consistency_n),
                # Truncated/failing: retry a hint-free prompt at one sample.
                lambda: LLMRequest(
                    prompt=build_prompt(schema_text, task.question), n=1
                ),
            ],
        )
        if not outcome.ok:
            return TranslationResult.exhausted(task.database.schema, outcome)
        response = outcome.response
        final = consistency_vote(response.texts, self.executor, task.database)
        return TranslationResult(
            sql=final,
            usage=TokenUsage(response.prompt_tokens, response.output_tokens, 1),
            degradation_level=outcome.level,
            retries=outcome.retries,
            events=outcome.events,
        )

    def close(self) -> None:
        """Release the underlying SQLite resources."""
        self.executor.close()


def lexical_prune(question: str, database: Database) -> Schema:
    """Zero-shot schema pruning by lexical overlap.

    Tables whose name words appear in the question are kept, along with
    their foreign-key neighbours (for join paths).  Without a trained
    classifier this is noisier than PURPLE's pruning — C3's design point.
    """
    schema = database.schema
    q_words = {singularize(w) for w in split_words(question)}
    graph = SchemaGraph(schema)
    scored = []
    for table in schema.tables:
        t_words = [singularize(w) for w in split_words(table.natural_name)]
        overlap = sum(1 for w in t_words if w in q_words)
        scored.append((overlap / max(len(t_words), 1), table.key))
    kept = {t for score, t in scored if score >= 0.5}
    if not kept:
        kept = {max(scored)[1]}
    for table in list(kept):
        kept.update(graph.neighbors(table))
    keep = {t: [c.key for c in schema.table(t).columns] for t in kept}
    pruned = schema.subset(keep)
    return pruned if pruned.tables else schema


@register("c3")
def _make_c3(*, llm=None, train=None, budget=None, consistency_n=None,
             seed=None, **config):
    """C3 ignores budget/seed; ``train`` is accepted but unused."""
    approach = C3(
        llm,
        consistency_n=(
            DEFAULT_CONSISTENCY_N if consistency_n is None else consistency_n
        ),
        **config,
    )
    return approach.fit(train) if train is not None else approach
