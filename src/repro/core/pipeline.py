"""The end-to-end PURPLE pipeline (Figure 3).

``Purple.fit`` trains the two PLM substrates on the demonstration corpus
and builds the four-level automaton; ``Purple.translate`` runs the full
loop for one task: prune → predict skeletons → select demonstrations →
pack prompt → call the LLM (n samples) → adapt → vote → repair (when
``repair_rounds`` > 0; docs/repair.md).

Every module can be switched off for the Table-6 ablations via
:class:`~repro.core.config.PurpleConfig`.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.api.registry import register
from repro.core.adaption import DatabaseAdapter
from repro.core.automaton import AutomatonIndex
from repro.core.config import PurpleConfig
from repro.core.consistency import consistency_vote
from repro.core.prompt import PromptBuilder
from repro.core.pruning import SchemaPruner
from repro.core.selection import select_demonstrations
from repro.core.skeleton_prediction import (
    PredictedSkeleton,
    SkeletonPredictionModule,
)
from repro.eval.cost import TokenUsage
from repro.eval.harness import TranslationResult, TranslationTask
from repro.llm.degrade import run_ladder
from repro.llm.interface import LLM, LLMRequest
from repro.llm.promptfmt import build_prompt, render_schema
from repro.obs import runtime as obs
from repro.plm.classifier import train_schema_classifier
from repro.plm.labels import dataset_used_items
from repro.repair import RepairBudget, RepairLoop
from repro.plm.skeleton_model import train_skeleton_predictor
from repro.schema import SQLiteExecutor
from repro.spider.dataset import Dataset
from repro.sqlkit.skeleton import skeleton_tokens
from repro.utils.rng import derive_rng, stable_hash


class Purple:
    """PURPLE: Pre-trained models Utilized to Retrieve Prompts for
    Logical Enhancement."""

    #: How many rungs of the degradation ladder a caller may skip when
    #: entering ``translate`` demoted (the serving layer's load
    #: shedding): 2 = straight to the zero-shot rung.
    max_demotion = 2

    def __init__(self, llm: LLM, config: Optional[PurpleConfig] = None):
        self.llm = llm
        self.config = config or PurpleConfig()
        self.name = f"PURPLE({llm.name})"
        self.executor = SQLiteExecutor()
        self.adapter = DatabaseAdapter(
            self.executor, max_attempts=self.config.max_repair_attempts
        )
        # The repair budget is run-wide: one ledger shared by every
        # worker translating through this instance (docs/repair.md).
        self.repair_budget = RepairBudget(self.config.repair_token_budget)
        self.repair: Optional[RepairLoop] = None
        if self.config.repair_rounds > 0:
            self.repair = RepairLoop(
                llm=llm,
                executor=self.executor,
                adapter=self.adapter,
                max_rounds=self.config.repair_rounds,
                budget=self.repair_budget,
            )
        self.classifier = None
        self.pruner: Optional[SchemaPruner] = None
        self.skeleton_module: Optional[SkeletonPredictionModule] = None
        self.automaton: Optional[AutomatonIndex] = None
        self.index_stats: dict = {}
        self.prompt_builder: Optional[PromptBuilder] = None
        self.oracle_skeletons: dict = {}

    # -- training ---------------------------------------------------------------

    def fit(self, demo_pool: Dataset) -> "Purple":
        """Train substrates and index the demonstration pool."""
        cfg = self.config
        # Each demonstration's gold-used schema items, parsed once for
        # all three consumers below.
        used_items = dataset_used_items(demo_pool)
        self.classifier = train_schema_classifier(
            demo_pool, epochs=cfg.classifier_epochs, seed=cfg.seed,
            used_items=used_items,
        )
        self.pruner = SchemaPruner(
            classifier=self.classifier,
            tau_p=cfg.tau_p,
            tau_n=cfg.tau_n,
            use_steiner=cfg.use_steiner,
            steiner_method=cfg.steiner_method,
        )
        predictor = train_skeleton_predictor(
            demo_pool, epochs=cfg.skeleton_epochs, seed=cfg.seed,
            used_items=used_items,
        )
        self.skeleton_module = SkeletonPredictionModule(
            predictor=predictor, top_k=cfg.top_k_skeletons
        )
        self._index_pool(demo_pool)
        self.prompt_builder = PromptBuilder(
            demo_pool, values_per_column=cfg.values_per_column,
            used_items=used_items,
        )
        return self

    def _index_pool(self, demo_pool: Dataset) -> None:
        """Build the four-level automaton over the demonstration pool.

        ``index_stats`` records the build time, pool size and per-level
        end-state counts so the evaluation harness and ``/v1/health``
        can surface them.
        """
        demo_sqls = [ex.sql for ex in demo_pool]
        started = time.perf_counter()
        with obs.span("index.build"):
            self.automaton = AutomatonIndex.build(demo_sqls)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        obs.count("index.builds")
        self.index_stats = {
            "elapsed_ms": round(elapsed_ms, 3),
            "pool_size": len(demo_sqls),
            "states": self.automaton.end_state_counts(),
        }

    # -- inference ----------------------------------------------------------------

    def translate(
        self, task: TranslationTask, *, min_rung: int = 0
    ) -> TranslationResult:
        """Translate one NL question to SQL.

        ``min_rung`` enters the degradation ladder below the top — rung
        1 skips the full prompt, rung 2 goes straight to zero-shot.
        The default (0) is byte-identical to the pre-demotion pipeline;
        the serving layer uses positive values to shed load without
        dropping requests (docs/serving.md).
        """
        assert self.prompt_builder is not None, "call fit() first"
        min_rung = max(0, min(min_rung, self.max_demotion))
        cfg = self.config
        rng = derive_rng(
            cfg.seed, "purple", task.db_id, stable_hash(task.question)
        )

        # Step 1 — schema pruning.
        with obs.span("stage:prune"):
            if cfg.use_pruning:
                schema = self.pruner.prune(task.question, task.database)
            else:
                schema = task.database.schema
            schema_text = render_schema(
                task.database, schema, values_per_column=cfg.values_per_column
            )

        # Step 2 — skeleton prediction (or the oracle override).
        with obs.span("stage:skeleton"):
            skeletons = self._predict_skeletons(task, schema)

        # Step 3 — demonstration selection.  A request demoted straight
        # to the zero-shot rung never packs demonstrations, so shed
        # requests skip the selection work entirely — that saved compute
        # is the point of demotion.
        with obs.span("stage:select"):
            if cfg.use_selection and skeletons and min_rung < self.max_demotion:
                demo_order = select_demonstrations(
                    self.automaton, skeletons, cfg, rng=rng
                )
            else:
                demo_order = []

        # Step 4 — prompt assembly and the LLM call, walked down the
        # degradation ladder: the full prompt first (the exact request a
        # fault-free run makes), then fewer demonstrations at half the
        # budget (the only fix for a truncated completion), then
        # zero-shot.  Later rungs build their prompts lazily, so the
        # happy path is bit-identical to a ladder-free call.  A demoted
        # request (``min_rung`` > 0) enters the same ladder below the
        # top — skipped rungs never build their prompts at all.
        prompt = None
        if min_rung == 0:
            prompt = self.prompt_builder.build(
                task.question,
                schema_text,
                demo_order,
                budget=cfg.input_budget,
                rng=rng,
            )

        def _half_budget_request() -> LLMRequest:
            reduced = self.prompt_builder.build(
                task.question,
                schema_text,
                demo_order,
                budget=max(cfg.input_budget // 2, 256),
                rng=derive_rng(
                    cfg.seed, "degrade", task.db_id, stable_hash(task.question)
                ),
            )
            return LLMRequest(prompt=reduced, n=cfg.consistency_n)

        def _zero_shot_request() -> LLMRequest:
            return LLMRequest(
                prompt=build_prompt(schema_text, task.question),
                n=cfg.consistency_n,
            )

        rungs = [
            lambda: LLMRequest(prompt=prompt, n=cfg.consistency_n),
            _half_budget_request,
            _zero_shot_request,
        ]
        with obs.span("stage:llm"):
            outcome = run_ladder(
                self.llm, rungs[min_rung:], first_rung=min_rung
            )
        if not outcome.ok:
            return TranslationResult.exhausted(schema, outcome)
        response = outcome.response

        # Step 5 — database adaption (repairs) and consistency voting.
        # Hallucinations are systematic per prompt, so without the repairs
        # the whole vote pool shares the defect — which is exactly why the
        # paper's -Database Adaption ablation costs mostly EX.
        with obs.span("stage:adapt"):
            if cfg.use_adaption:
                # One repair plan per distinct failing text: the n samples
                # repeat few texts (the memo lives for this call only).
                fix_memo: dict = {}
                candidates = [
                    self.adapter.adapt(text, task.database, memo=fix_memo).sql
                    for text in response.texts
                ]
            else:
                candidates = list(response.texts)
            final = consistency_vote(candidates, self.executor, task.database)

        usage = TokenUsage(
            prompt_tokens=response.prompt_tokens,
            output_tokens=response.output_tokens,
            calls=1,
        )

        # Step 6 — execution-feedback repair (docs/repair.md).  Only when
        # configured on: the vote can still elect a failing query when
        # every candidate shares a systematic hallucination.  Placed
        # after the ladder's best-effort early return above, so repair
        # never runs once the ladder is exhausted.  With repair_rounds=0
        # this block is skipped entirely — no extra executor, LLM, or
        # observability calls — keeping outcomes and traces byte-identical
        # to a loop-free build.
        repair_rounds_used = 0
        repaired = False
        if self.repair is not None:
            with obs.span("stage:repair"):
                compact_schema_text = render_schema(
                    task.database, schema, values_per_column=0
                )
                report = self.repair.run(
                    final,
                    task.database,
                    schema_text=schema_text,
                    compact_schema_text=compact_schema_text,
                    question=task.question,
                )
            final = report.sql
            usage.add(report.usage)
            repair_rounds_used = report.rounds
            repaired = report.repaired

        return TranslationResult(
            sql=final,
            usage=usage,
            degradation_level=outcome.level,
            retries=outcome.retries,
            events=outcome.events,
            repair_rounds=repair_rounds_used,
            repaired=repaired,
        )

    # -- capabilities (repro.api.explain / repro.api.health) -----------------------

    def explain(self, task: TranslationTask, sql: Optional[str] = None) -> dict:
        """Static diagnostics plus retrieval provenance for one task.

        Runs the LLM-free front half of the pipeline — prune, skeleton
        prediction, demonstration selection — and reports what each
        stage decided: the pruned tables, the predicted skeletons with
        probabilities, and the selected demonstrations with the
        automaton level that matched them.  With ``sql`` given, the
        schema-aware analyzer (:mod:`repro.analysis.sqlcheck`) checks it
        against the task database and its diagnostics ride along.
        Never calls the LLM.
        """
        assert self.prompt_builder is not None, "call fit() first"
        from repro.analysis import analyze_sql

        cfg = self.config
        rng = derive_rng(
            cfg.seed, "purple", task.db_id, stable_hash(task.question)
        )
        if cfg.use_pruning:
            schema = self.pruner.prune(task.question, task.database)
        else:
            schema = task.database.schema
        skeletons = self._predict_skeletons(task, schema)
        demo_order = []
        if cfg.use_selection and skeletons:
            demo_order = select_demonstrations(
                self.automaton, skeletons, cfg, rng=rng
            )
        # Finest automaton level (1=detail .. 4=clause) at which each
        # selected demonstration matched any predicted skeleton — the
        # provenance the explain endpoint exposes.
        def _match_level(index: int):
            for level in (1, 2, 3, 4):
                for s in skeletons:
                    if index in self.automaton.match(level, s.tokens):
                        return level
            return None

        pool = self.prompt_builder.demo_pool.examples
        demonstrations = tuple(
            {
                "index": int(i),
                "db_id": pool[i].db_id,
                "sql": pool[i].sql,
                "skeleton": " ".join(skeleton_tokens(pool[i].sql)),
                "level": _match_level(int(i)),
            }
            for i in demo_order[: cfg.top_k_skeletons * 4]
            if 0 <= i < len(pool)
        )
        diagnostics = tuple(
            d.as_dict()
            for d in (analyze_sql(sql, task.database.schema) if sql else ())
        )
        return {
            "db_id": task.db_id,
            "pruned_tables": tuple(t.name for t in schema.tables),
            "skeletons": tuple(
                {
                    "tokens": " ".join(s.tokens),
                    "probability": round(float(s.probability), 6),
                }
                for s in skeletons
            ),
            "demonstrations": demonstrations,
            "diagnostics": diagnostics,
            "sql": sql or "",
        }

    def health(self) -> dict:
        """Liveness/fitness self-report for the serving layer."""
        fitted = self.prompt_builder is not None
        report = {
            "status": "ok" if fitted else "unfitted",
            "approach": self.name,
            "fitted": fitted,
            "repair_rounds": self.config.repair_rounds,
        }
        if self.index_stats:
            report["index"] = dict(self.index_stats)
        return report

    def _predict_skeletons(self, task: TranslationTask, schema) -> list:
        oracle = self.oracle_skeletons.get((task.db_id, task.question))
        if oracle is not None:
            return [PredictedSkeleton(tokens=tuple(oracle), probability=1.0)]
        return self.skeleton_module.predict(task.question, schema)

    # -- oracle support (Table 6, "+Oracle Skeleton") -------------------------------

    def set_oracle_skeletons(self, dataset: Dataset) -> None:
        """Install gold skeletons for the oracle-setting experiment."""
        self.oracle_skeletons = {
            (ex.db_id, ex.question): tuple(skeleton_tokens(ex.sql))
            for ex in dataset
        }

    def close(self) -> None:
        """Release the underlying SQLite resources."""
        self.executor.close()


@register("purple")
def _make_purple(*, llm=None, train=None, budget=None, consistency_n=None,
                 seed=None, config=None, **overrides):
    """Build PURPLE; shared knobs map onto :class:`PurpleConfig` fields.

    Pass ``config=PurpleConfig(...)`` to take full control (the shared
    knobs must then be omitted), or pass any ``PurpleConfig`` field as a
    keyword override.
    """
    if config is not None:
        if budget is not None or consistency_n is not None or seed is not None:
            raise TypeError(
                "pass either config= or the budget/consistency_n/seed "
                "knobs, not both"
            )
        if overrides:
            raise TypeError(
                "config= and field overrides are mutually exclusive"
            )
    else:
        if budget is not None:
            overrides["input_budget"] = budget
        if consistency_n is not None:
            overrides["consistency_n"] = consistency_n
        if seed is not None:
            overrides["seed"] = seed
        config = PurpleConfig(**overrides)
    approach = Purple(llm, config)
    return approach.fit(train) if train is not None else approach
