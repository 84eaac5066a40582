"""The simulated LLM.

``MockLLM.complete`` is a faithful stand-in for a chat-completion call:
it reads *only the prompt text* (instructions, demonstration blocks, task
schema, question), recovers the intent with its profile's understanding
competence, chooses a logical operator composition — its "basic SQL
knowledge" prior, bent toward any demonstration whose structure-level
skeleton matches a candidate composition — builds the SQL, and
occasionally hallucinates one of the six Table-2 error classes.

Everything is deterministic given (seed, prompt, sample index).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Optional

import numpy as np

from repro.llm.hallucination import inject_hallucination
from repro.llm.interface import LLMRequest, LLMResponse
from repro.llm.profiles import CHATGPT, LLMProfile
from repro.llm.promptfmt import ParsedPrompt, SchemaInfo, parse_prompt
from repro.llm.tokenizer import count_prompt_tokens, count_tokens
from repro.llm.understanding import Understander
from repro.plm.features import convention_cues
from repro.spider.archetypes import BUILD_ERRORS, archetype_by_kind
from repro.spider.blueprint import ColumnBlueprint
from repro.spider.intents import IntentSpec
from repro.sqlkit.abstraction import abstract_tokens
from repro.sqlkit.ast_nodes import (
    Agg,
    BetweenExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    Literal,
    SelectCore,
    clone,
    walk,
)
from repro.sqlkit.errors import SQLError
from repro.sqlkit.render import render_sql
from repro.sqlkit.skeleton import skeleton_tokens
from repro.utils.rng import derive_rng, stable_hash

# The model's own preferences over realizations — "basic SQL knowledge".
# Where these diverge from the corpus's gold distribution is exactly where
# naive prompting loses EM.
SIMPLE_PRIORS = {
    "list": {"plain": 0.8, "distinct": 0.2},
    "distinct_count": {"count_distinct": 0.9, "subquery": 0.1},
    "join_filtered": {"join": 0.45, "in_subquery": 0.55},
    "group_count": {"group_name": 0.4, "group_pk": 0.6},
    "group_having": {"having_ge": 0.3, "having_gt": 0.7},
    "group_argmax": {"order_limit": 0.9, "having_max": 0.1},
    "superlative": {"order_limit": 0.45, "max_subquery": 0.55},
    "exclusion": {"not_in": 0.85, "except": 0.15},
    "intersect": {"intersect": 0.5, "in_and": 0.5},
    "union_op": {"or": 0.85, "union": 0.15},
}


@dataclass
class PromptContext:
    """Duck-typed stand-in for DomainContext built from the prompt schema.

    Archetype ``build`` functions only need ``column_bp`` for literal
    typing, which the prompt's ``name:type`` annotations provide.
    """

    schema: SchemaInfo

    def column_bp(self, table: str, column: str) -> ColumnBlueprint:
        """Column blueprint (name/type) for literal typing."""
        for col in self.schema.columns_of(table):
            if col.name.lower() == column.lower():
                role = "numeric" if col.col_type in ("integer", "real") else "text"
                return ColumnBlueprint(
                    name=col.name, role=role, col_type=col.col_type
                )
        return ColumnBlueprint(name=column, role="text", col_type="text")


class MockLLM:
    """A simulated chat-completion model."""

    def __init__(self, profile: LLMProfile = CHATGPT, seed: int = 0):
        self.profile = profile
        self.seed = seed
        self.name = profile.name
        self._understander = Understander(profile)

    # -- LLM interface ----------------------------------------------------------

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Produce ``n`` completions for the prompt."""
        parsed = parse_prompt(request.prompt)
        prompt_tokens = count_prompt_tokens(request.prompt)
        if parsed.task_schema is None or not parsed.task_question:
            return LLMResponse(
                texts=["SELECT 1"] * max(request.n, 1),
                prompt_tokens=prompt_tokens,
                output_tokens=2 * max(request.n, 1),
            )
        demo_skeletons = _demo_skeletons(parsed)
        effects = _instruction_effects(parsed.instructions)
        task_cues = convention_cues(parsed.task_question)
        base = stable_hash(self.seed, request.prompt)
        # Hallucination is systematic: a model that misreads the schema
        # misreads it in every sample of the same prompt, so the trigger is
        # drawn once per prompt (this is why §IV-D's repairs matter even
        # under consistency voting — the vote pool shares the defect).
        rate = self.profile.hallucination_rate * effects.get(
            "hallucination_scale", 1.0
        )
        if demo_skeletons:
            rate *= 0.7
        hallucinate = derive_rng(base, "hallucination").random() < rate
        if parsed.repair:
            # A repair prompt pins the model's attention on the diagnosed
            # defect: re-reading the schema against an explicit error
            # report suppresses the systematic misread.  The draw above
            # still happens so the rng stream is identical either way.
            hallucinate = False
        # What the prompt fixes is computed once per call, and only the
        # draws are per sample: the n samples read one question against
        # one schema (``links``: each phrase's linking ranking) and few
        # distinct intents (``distributions``: each intent's candidates,
        # their rendered SQL and CDF).  The memos are local to this call:
        # serve threads and evaluation workers share one MockLLM.
        links: dict = {}
        distributions: dict = {}
        texts = []
        for i in range(max(request.n, 1)):
            rng = derive_rng(base, "sample", i)
            texts.append(
                self._one_sample(
                    parsed, demo_skeletons, effects, task_cues, links,
                    distributions, rng, i, hallucinate,
                )
            )
        token_counts: dict = {}
        for text in texts:
            if text not in token_counts:
                token_counts[text] = count_tokens(text)
        output_tokens = sum(token_counts[t] for t in texts)
        return LLMResponse(
            texts=texts, prompt_tokens=prompt_tokens, output_tokens=output_tokens
        )

    # -- internals ----------------------------------------------------------------

    def _one_sample(
        self,
        parsed: ParsedPrompt,
        demo_skeletons: list,
        effects: dict,
        task_cues: frozenset,
        links: dict,
        distributions: dict,
        rng: np.random.Generator,
        sample_index: int,
        hallucinate: bool = False,
    ) -> str:
        noise = 1.0 if sample_index == 0 else 1.0 + self.profile.sample_noise * 3
        if effects.get("cot"):
            noise *= 0.65 if self.profile.name == "gpt4" else 1.9
        if demo_skeletons:
            # Demonstrations stabilize generation: seeing worked examples
            # reduces reading slips and invalid-SQL output (why the paper's
            # few-shot rows beat zero-shot even with random demonstrations).
            noise *= 0.8
        understanding = self._understander.understand(
            parsed.task_question, parsed.task_schema, rng, noise_scale=noise,
            links=links,
        )
        intent = understanding.intent
        if intent is None:
            tables = parsed.task_schema.table_names()
            table = tables[0] if tables else "unknown"
            return f"SELECT * FROM {table}"
        key = repr(intent)
        if key not in distributions:
            distributions[key] = self._distribution(
                intent, parsed.task_schema, demo_skeletons, effects, task_cues
            )
        candidates, cdf = distributions[key]
        if not candidates:
            return f"SELECT * FROM {intent.table}"
        if len(candidates) == 1:
            pick = 0
        else:
            pick = _draw_index(cdf, rng)
        sql_query, rendered = candidates[pick]
        if hallucinate:
            sql_query, _ = inject_hallucination(sql_query, parsed.task_schema, rng)
            return render_sql(sql_query)
        return rendered

    def _distribution(
        self,
        intent: IntentSpec,
        schema: SchemaInfo,
        demo_skeletons: list,
        effects: dict,
        task_cues: frozenset,
    ) -> tuple:
        """``(candidates, cdf)``: the ``(query, rendered SQL)`` pairs this
        model may write for ``intent`` and the cumulative distribution
        :func:`_draw_index` samples them by.

        A pure function of the prompt and the intent; no randomness is
        drawn here.  ``cdf`` is None when there are fewer than two
        candidates, since then no draw is made.
        """
        try:
            archetype = archetype_by_kind(intent.kind)
        except KeyError:
            return (), None
        ctx = PromptContext(schema)
        base_candidates = []
        for realization in archetype.candidate_realizations(intent):
            try:
                query = archetype.build(intent, realization, ctx)
            except BUILD_ERRORS:
                continue
            base_candidates.append((realization, query))
        if not base_candidates:
            return (), None
        realization_weights = dict(
            zip(
                [r for r, _ in base_candidates],
                self._candidate_weights(
                    intent, archetype, [r for r, _ in base_candidates], effects
                ),
            )
        )
        # Expand with stylistic convention axes.  Gold annotation follows
        # corpus conventions ("at least 30" is ``>= 30``, ranges use
        # BETWEEN, no spurious DISTINCT); a model that has not seen the
        # convention drifts on each axis independently.  Every axis is
        # (near-)execution-equal but EM-different — conventions only a
        # structurally matching demonstration can teach.
        candidates = []
        weights = []
        for realization, query in base_candidates:
            w = realization_weights[realization]
            for styled, style_p in self._style_variants(query, effects):
                candidates.append(styled)
                weights.append(w * style_p)
        rendered = tuple((query, render_sql(query)) for query in candidates)
        if len(candidates) == 1:
            return rendered, None
        # Demonstrations act as evidence multiplying the prior: an exact
        # keywords-level skeleton match is near-decisive, a structure-level
        # match a moderate nudge, and earlier (higher-priority)
        # demonstrations weigh more.  This is in-context learning as a
        # Bayesian update rather than blind imitation — random
        # demonstrations tilt the model only gently, while PURPLE's
        # retrieved, correctly-ordered demonstrations dominate the prior.
        boosts = self._demo_boosts(
            [sql for _, sql in rendered], demo_skeletons, task_cues
        )
        probs = np.array(weights, dtype=float)
        if effects.get("cot") and self.profile.name != "gpt4":
            # Chain-of-thought error propagation on a weak reasoner: the
            # long decomposition flattens its composition preferences and
            # loses track of the demonstrations (§V-F: DIN-SQL's ChatGPT
            # collapse).
            probs = probs ** 0.4
            boosts = 1.0 + (boosts - 1.0) * 0.35
        probs = probs * boosts
        return rendered, _cdf(probs / probs.sum())

    def _style_variants(self, query, effects: dict) -> list:
        """Enumerate stylistic variants of one realization with priors.

        Axes: boundary-operator shift, BETWEEN decomposition, spurious
        DISTINCT.  Applicable axes combine independently; the canonical
        form keeps the product of per-axis canonical probabilities.
        """
        affinity = self.profile.prior_gold_affinity
        distinct_drift = effects.get(
            "spurious_distinct", 0.25 * (1 - affinity)
        )
        axes = [
            (_shift_boundaries, 0.45 + 0.55 * affinity),
            (_decompose_between, 0.55 + 0.45 * affinity),
            (_spurious_distinct, 1.0 - distinct_drift),
        ]
        variants = [(query, 1.0)]
        for transform, canonical_p in axes:
            expanded = []
            for q, p in variants:
                mutated = transform(q)
                if mutated is None:
                    expanded.append((q, p))
                else:
                    expanded.append((q, p * canonical_p))
                    expanded.append((mutated, p * (1 - canonical_p)))
            variants = expanded
        return variants

    def _candidate_weights(
        self, intent: IntentSpec, archetype, realizations: list, effects: dict
    ) -> list:
        simple = SIMPLE_PRIORS.get(intent.kind, {})
        gold = dict(zip(archetype.realizations, archetype.gold_weights))
        affinity = self.profile.prior_gold_affinity
        weights = []
        for realization in realizations:
            s = simple.get(realization, 1.0 / max(len(realizations), 1))
            g = gold.get(realization, 0.0)
            w = (1 - affinity) * s + affinity * g
            if intent.kind == "list" and realization == "distinct":
                w = effects.get("distinct_prior", self.profile.distinct_prior)
            if intent.kind == "list" and realization == "plain":
                w = 1.0 - effects.get("distinct_prior", self.profile.distinct_prior)
            weights.append(max(w, 1e-6))
        return weights

    # Evidence strength of a demonstration whose skeleton matches a
    # candidate exactly at the keywords level / only at the structure level
    # / at the structure level with the same convention phrasing in its
    # question (a strong analogy even when filter details differ).
    _KEYWORDS_BOOST = 40.0
    _STRUCTURE_BOOST = 2.0
    _CUE_STRUCTURE_BOOST = 12.0

    def _demo_boosts(
        self,
        candidates: list,
        demo_skeletons: list,
        task_cues: frozenset = frozenset(),
    ) -> np.ndarray:
        """Multiplicative prior boosts from demonstration matches of each
        candidate's rendered SQL."""
        boosts = np.ones(len(candidates))
        if not demo_skeletons:
            return boosts
        follow = self.profile.demo_follow
        for idx, sql in enumerate(candidates):
            try:
                tokens = skeleton_tokens(sql)
            except SQLError:
                continue
            keywords = abstract_tokens(tokens, 2)
            structure = abstract_tokens(tokens, 3)
            best_kw = 0.0
            best_struct = 0.0
            best_cue_struct = 0.0
            extra_matches = 0
            for pos, (demo_kw, demo_struct, demo_cues) in enumerate(demo_skeletons):
                # Exponential decay: attention concentrates on the first
                # demonstrations, which for PURPLE carry the retrieved
                # skeleton's composition.  A demonstration whose question
                # carries the same convention phrasing as the task grabs
                # attention wherever it sits in the prompt.
                position_weight = 0.5 ** min(pos, 8)
                same_phrasing = bool(task_cues) and demo_cues == task_cues
                if demo_kw == keywords:
                    if same_phrasing and pos < 12:
                        position_weight = max(position_weight, 0.75)
                    if best_kw:
                        extra_matches += 1
                    best_kw = max(best_kw, position_weight)
                elif demo_struct == structure:
                    if same_phrasing and pos < 12:
                        best_cue_struct = max(
                            best_cue_struct,
                            max(position_weight, 0.6 * 0.85 ** pos),
                        )
                    if best_struct:
                        extra_matches += 1
                    best_struct = max(best_struct, position_weight)
            # The best-placed matching demonstration carries the evidence;
            # duplicates of the same skeleton add only marginally, so a run
            # of near-identical demonstrations cannot drown out everything.
            strength = (
                self._KEYWORDS_BOOST * best_kw
                + self._STRUCTURE_BOOST * best_struct
                + self._CUE_STRUCTURE_BOOST * best_cue_struct
            )
            boosts[idx] += follow * strength * (1.0 + 0.1 * min(extra_matches, 5))
        return boosts


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized cumulative distribution ``Generator.choice`` builds
    from ``p``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_index(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn by ``cdf``: the draw ``rng.choice(len(cdf), p=p)``
    makes for the ``p`` :func:`_cdf` was built from, the same uniform
    variate and the same search, without re-validating ``p``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _demo_skeletons(parsed: ParsedPrompt) -> list:
    """``(keywords, structure, cues)`` of each demonstration whose SQL
    tokenizes, in prompt order."""
    skeletons = []
    for demo in parsed.demos:
        if not demo.sql:
            continue
        skeleton = _demo_skeleton(demo.sql, demo.question)
        if skeleton is not None:
            skeletons.append(skeleton)
    return skeletons


@lru_cache(maxsize=8192)
def _demo_skeleton(sql: str, question: str) -> Optional[tuple]:
    """Keywords- and structure-level skeletons of one demonstration plus
    its question's convention cues, or None when the SQL does not
    tokenize.  Cached because prompts share demonstrations: PURPLE draws
    every prompt's demonstrations from one training pool, so most of a
    prompt's demonstrations already appeared in an earlier prompt."""
    try:
        tokens = skeleton_tokens(sql)
    except SQLError:
        return None
    return (
        abstract_tokens(tokens, 2),
        abstract_tokens(tokens, 3),
        convention_cues(question),
    )


# Boundary comparison → (off-by-one operator, literal shift).
_BOUNDARY_SHIFTS = {">=": (">", -1), "<=": ("<", 1), ">": (">=", 1), "<": ("<=", -1)}


def _shiftable(node) -> bool:
    return (
        isinstance(node, Comparison)
        and node.op in _BOUNDARY_SHIFTS
        and isinstance(node.left, ColumnRef)
        and isinstance(node.right, Literal)
        and isinstance(node.right.value, int)
    )


def _shift_boundaries(query):
    """Rewrite integer boundary comparisons to the off-by-one style.

    ``col >= 30`` → ``col > 29`` etc.  Returns None when the query has no
    integer filter comparison to shift (aggregate comparisons like
    ``HAVING COUNT(*) >= n`` are realization-level choices already and are
    left alone).
    """
    if not any(_shiftable(node) for node in walk(query)):
        return None
    shifted = clone(query)
    for node in walk(shifted):
        if _shiftable(node):
            op, delta = _BOUNDARY_SHIFTS[node.op]
            node.op, node.right.value = op, node.right.value + delta
    return shifted


def _decompose_between(query):
    """Rewrite the first ``BETWEEN a AND b`` into ``>= a AND <= b``."""
    for position, node in enumerate(walk(query)):
        if not isinstance(node, SelectCore) or node.where is None:
            continue
        target = node.where
        if _decomposable(target):
            return _split_between(query, position, None)
        if isinstance(target, BoolOp):
            for i, term in enumerate(target.terms):
                if _decomposable(term):
                    # Inside OR the decomposition needs nesting; skip.
                    if target.op != "AND":
                        return None
                    return _split_between(query, position, i)
    return None


def _decomposable(node) -> bool:
    return isinstance(node, BetweenExpr) and not node.negated


def _split_between(query, position: int, term_index: Optional[int]):
    """Clone ``query`` and split the BETWEEN in the WHERE of its
    ``position``-th node (pre-order): the whole WHERE when ``term_index``
    is None, else that term of its AND."""
    shifted = clone(query)
    core = next(islice(walk(shifted), position, None))
    between = core.where if term_index is None else core.where.terms[term_index]
    bounds = [
        Comparison(op=">=", left=between.left, right=between.low),
        Comparison(op="<=", left=clone(between.left), right=between.high),
    ]
    if term_index is None:
        core.where = BoolOp(op="AND", terms=bounds)
    else:
        core.where.terms[term_index:term_index + 1] = bounds
    return shifted


def _spurious_distinct(query):
    """Add a DISTINCT the gold does not have (plain column projections only)."""
    core = query.core
    if core.distinct or core.group_by or core.limit is not None:
        return None
    if any(isinstance(item.expr, Agg) for item in core.items):
        return None
    if query.compounds:
        return None
    mutated = clone(query)
    mutated.core.distinct = True
    return mutated


def _instruction_effects(instructions: str) -> dict:
    """C3-style instructions nudge the model's behaviour."""
    effects: dict = {}
    text = instructions.lower()
    if "only" in text and "column" in text:
        effects["hallucination_scale"] = 0.55
    if "avoid" in text and "distinct" in text:
        # Calibration hints trade spurious DISTINCTs for missed ones.
        effects["distinct_prior"] = 0.10
        effects["spurious_distinct"] = 0.08
    if "valid" in text and "sqlite" in text:
        effects.setdefault("hallucination_scale", 0.7)
    if "step by step" in text:
        # Chain-of-thought: strong reasoners benefit; weaker models suffer
        # error propagation across the decomposition (§V-F's observation
        # about DIN-SQL's LLM sensitivity).
        effects["cot"] = True
    return effects
