"""Skeleton prediction module (§IV-B) — wraps the trainable predictor.

Produces the top-k skeletons with probabilities for a (question, pruned
schema) pair and cleans out-of-vocabulary tokens before they reach the
automaton (§IV-C2: "we will remove all of the out-of-vocabulary tokens
before parsing the predicted skeletons").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.plm.skeleton_model import SkeletonPredictor
from repro.schema import Schema
from repro.sqlkit.keywords import KEYWORDS
from repro.sqlkit.skeleton import PLACEHOLDER


@dataclass
class PredictedSkeleton:
    """One beam-search hypothesis."""

    tokens: tuple
    probability: float


_VALID_TOKENS = (
    set(KEYWORDS)
    | {PLACEHOLDER, "(", ")", ",", "*", "GROUP BY", "ORDER BY"}
    | {"<", "<=", ">", ">=", "=", "!=", "+", "-", "/"}
)


@dataclass
class SkeletonPredictionModule:
    """Top-k skeleton prediction with OOV cleanup."""

    predictor: SkeletonPredictor
    top_k: int = 3

    def predict(
        self, question: str, schema: Optional[Schema] = None
    ) -> list:
        """Return up to ``top_k`` :class:`PredictedSkeleton`, best first."""
        raw = self.predictor.predict(question, schema, k=self.top_k)
        results = []
        for text, prob in raw:
            tokens = tuple(
                t for t in _merge_multiword(text.split(" ")) if t in _VALID_TOKENS
            )
            if tokens:
                results.append(PredictedSkeleton(tokens=tokens, probability=prob))
        return results


def _merge_multiword(tokens: list) -> list:
    """Re-join multi-word skeleton tokens split by serialization.

    The automaton tokenizes ``GROUP BY``/``ORDER BY`` as single tokens;
    a predicted skeleton string round-trips through ``" ".join``, so the
    pair must be merged back before matching.
    """
    out: list = []
    i = 0
    while i < len(tokens):
        if tokens[i] in ("GROUP", "ORDER") and i + 1 < len(tokens) and tokens[i + 1] == "BY":
            out.append(f"{tokens[i]} BY")
            i += 2
            continue
        out.append(tokens[i])
        i += 1
    return out
