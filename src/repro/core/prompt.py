"""Prompt assembly under a token budget (§III-A, §V-D).

The prompt is ``CAT(E', D, X)``: selected demonstrations, the (pruned)
task schema, and the question.  Each demonstration carries its own pruned
schema (§III-A: "the schema of each demonstration undergoes a pruning
process"), pruned by the gold-used items, plus representative column
values following BRIDGE.

Demonstrations are appended in priority order while they fit the budget;
leftover budget is filled with randomly chosen demonstrations (§IV-C3:
"the remaining demonstrations are chosen randomly to fully utilize the
budget").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.llm.promptfmt import build_prompt, render_demo, render_schema, render_task
from repro.llm.tokenizer import count_tokens
from repro.plm.labels import dataset_used_items
from repro.spider.dataset import Dataset


class PromptBuilder:
    """Renders demonstration blocks once, then packs prompts per task."""

    def __init__(self, demo_pool: Dataset, values_per_column: int = 2,
                 used_items: Optional[list] = None):
        """``used_items`` is :func:`~repro.plm.labels.dataset_used_items`
        of ``demo_pool`` when the caller already has it."""
        self.demo_pool = demo_pool
        self.values_per_column = values_per_column
        if used_items is None:
            used_items = dataset_used_items(demo_pool)
        self._blocks: list = []
        self._block_tokens: list = []
        for ex, used in zip(demo_pool.examples, used_items):
            block = self._render_demo_block(ex, used)
            self._blocks.append(block)
            self._block_tokens.append(count_tokens(block) + 2)

    def __len__(self) -> int:
        return len(self._blocks)

    def demo_block(self, index: int) -> str:
        """The pre-rendered '### Example' block for one demo."""
        return self._blocks[index]

    def _render_demo_block(self, ex, used: tuple) -> str:
        database = self.demo_pool.database(ex.db_id)
        used_tables, used_columns = used
        keep = {}
        for table in used_tables:
            keep[table] = [c for t, c in used_columns if t == table]
        pruned = database.schema.subset(keep) if keep else database.schema
        if not pruned.tables:
            pruned = database.schema
        schema_text = render_schema(
            database, pruned, values_per_column=self.values_per_column
        )
        return render_demo(schema_text, ex.question, ex.sql)

    # -- packing --------------------------------------------------------------

    def build(
        self,
        question: str,
        task_schema_text: str,
        demo_order: list,
        budget: int,
        rng: Optional[np.random.Generator] = None,
        instructions: str = "",
        extra_blocks: Optional[list] = None,
    ) -> str:
        """Assemble the prompt within ``budget`` input tokens.

        ``extra_blocks`` are pre-rendered ``### Example`` blocks placed
        before the pool demonstrations (used by the generation-based
        prompting extension).
        """
        task_block = render_task(task_schema_text, question)
        used = count_tokens(task_block) + (
            count_tokens(instructions) + 4 if instructions else 0
        )
        head_blocks = []
        for block in extra_blocks or []:
            cost = count_tokens(block) + 2
            if used + cost > budget:
                continue
            head_blocks.append(block)
            used += cost
        chosen: list = []
        chosen_set: set = set()
        for index in demo_order:
            cost = self._block_tokens[index]
            if used + cost > budget:
                continue
            chosen.append(index)
            chosen_set.add(index)
            used += cost
        if rng is not None:
            filler = rng.permutation(len(self._blocks))
            for index in filler:
                index = int(index)
                if index in chosen_set:
                    continue
                cost = self._block_tokens[index]
                if used + cost > budget:
                    break
                chosen.append(index)
                chosen_set.add(index)
                used += cost
        demos = head_blocks + [self._blocks[i] for i in chosen]
        return build_prompt(
            task_schema_text, question, demos=demos, instructions=instructions
        )
