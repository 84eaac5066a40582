"""Property tests for the SQL analyzer against the generated corpus.

Two falsifiable claims back the repair loop's candidate guard and the
diagnosis-directed adapter:

* **Zero false positives** — every gold query in every dataset variant
  is analyzer-clean (gold queries execute by construction, so any
  diagnostic would be a lie).
* **Full recall on injected hallucinations** — for each of the paper's
  six error classes, corrupting a gold query with
  :func:`repro.llm.hallucination.inject_specific` yields SQL the
  analyzer flags with a diagnostic of that same class, whenever the
  corruption actually breaks execution.  (Injectors occasionally
  produce still-executable SQL — e.g. dropping a join that wasn't
  needed — which the analyzer rightly leaves alone.)
"""

import pytest

from repro.analysis import SQLAnalyzer, fatal_diagnostics
from repro.llm.hallucination import ERROR_TYPES, inject_specific
from repro.llm.promptfmt import ColumnInfo, SchemaInfo
from repro.schema import SQLiteExecutor
from repro.sqlkit import parse_sql, render_sql
from repro.spider import make_variant
from repro.utils.rng import derive_rng


def schema_info_of(schema) -> SchemaInfo:
    return SchemaInfo(
        db_id=schema.db_id,
        tables={
            t.key: [
                ColumnInfo(name=c.name, col_type=c.col_type)
                for c in t.columns
            ]
            for t in schema.tables
        },
        fks=[fk.normalized() for fk in schema.foreign_keys],
    )


@pytest.fixture(scope="module")
def datasets(small_benchmark):
    dev = small_benchmark.dev
    return [
        small_benchmark.train,
        dev,
        make_variant(dev, "syn"),
        make_variant(dev, "realistic"),
        make_variant(dev, "dk"),
    ]


class TestZeroFalsePositives:
    def test_every_gold_query_is_clean(self, datasets):
        checked = 0
        dirty = []
        for dataset in datasets:
            analyzers = {
                db_id: SQLAnalyzer(dataset.database(db_id).schema)
                for db_id in dataset.db_ids()
            }
            for example in dataset.examples:
                diags = analyzers[example.db_id].analyze(example.sql)
                checked += 1
                if diags:
                    dirty.append((dataset.name, example.sql,
                                  [d.rule for d in diags]))
        assert checked > 100, "corpus fixture unexpectedly small"
        assert not dirty, dirty


class TestInjectedHallucinationRecall:
    @pytest.mark.parametrize("error_type", ERROR_TYPES)
    def test_broken_injections_are_flagged_with_their_class(
        self, small_benchmark, error_type
    ):
        # The train split is the larger one — every class injects at
        # least one execution-breaking corruption there.
        dev = small_benchmark.train
        executor = SQLiteExecutor()
        keys = {
            db_id: executor.register(dev.database(db_id))
            for db_id in dev.db_ids()
        }
        analyzers = {
            db_id: SQLAnalyzer(dev.database(db_id).schema)
            for db_id in dev.db_ids()
        }
        infos = {
            db_id: schema_info_of(dev.database(db_id).schema)
            for db_id in dev.db_ids()
        }
        flagged = skipped = 0
        missed = []
        for i, example in enumerate(dev.examples):
            rng = derive_rng(11, "inject", error_type, i)
            corrupted = inject_specific(
                parse_sql(example.sql), infos[example.db_id], error_type, rng
            )
            if corrupted is None:
                continue  # class not applicable to this query
            sql = render_sql(corrupted)
            if sql == example.sql:
                continue
            if executor.execute(keys[example.db_id], sql).ok:
                skipped += 1  # corruption happened to stay executable
                continue
            diags = analyzers[example.db_id].analyze(sql)
            classes = {d.error_class for d in fatal_diagnostics(diags)}
            if error_type in classes:
                flagged += 1
            else:
                missed.append((sql, sorted(d.rule for d in diags)))
        executor.close()
        assert flagged > 0, f"no broken injections produced for {error_type}"
        assert not missed, missed
