"""The dialect execution axis through the evaluation harness."""

from dataclasses import dataclass

from repro.eval import (
    TranslationResult,
    TranslationTask,
    evaluate_approach,
)
from repro.eval.reporting import diagnostics_summary
from repro.obs import Observer


@dataclass
class OracleApproach:
    lookup: dict
    name: str = "oracle"

    def translate(self, task: TranslationTask) -> TranslationResult:
        return TranslationResult(sql=self.lookup[(task.db_id, task.question)])


@dataclass
class DialectBreakingApproach:
    """Answers with SQL that is legal on SQLite but doomed on Postgres."""

    tables: dict
    name: str = "ifnull"

    def translate(self, task: TranslationTask) -> TranslationResult:
        table = self.tables[task.db_id]
        return TranslationResult(sql=f"SELECT IFNULL(1, 2) FROM {table}")


def _oracle(dataset):
    return OracleApproach(
        lookup={(ex.db_id, ex.question): ex.sql for ex in dataset}
    )


def _first_tables(dataset):
    return {
        db_id: dataset.database(db_id).schema.tables[0].name
        for db_id in dataset.db_ids()
    }


class TestPostgresAxisParity:
    def test_oracle_scores_perfect_on_postgres(self, dev_set):
        report = evaluate_approach(
            _oracle(dev_set), dev_set, limit=20, dialect="postgres"
        )
        assert report.dialect == "postgres"
        assert report.em == 1.0
        assert report.ex == 1.0

    def test_outcomes_byte_identical_to_sqlite(self, dev_set):
        lite = evaluate_approach(_oracle(dev_set), dev_set, limit=20)
        pg = evaluate_approach(
            _oracle(dev_set), dev_set, limit=20, dialect="postgres"
        )
        assert lite.dialect == "sqlite"
        assert [(o.ex_id, o.em, o.ex, o.ts) for o in lite.outcomes] == [
            (o.ex_id, o.em, o.ex, o.ts) for o in pg.outcomes
        ]


class TestPostgresGuard:
    def test_dialect_doomed_sql_is_skipped_statically(self, dev_set):
        approach = DialectBreakingApproach(_first_tables(dev_set))
        observer = Observer(seed=0)
        report = evaluate_approach(
            approach, dev_set, limit=10, observer=observer,
            dialect="postgres",
        )
        assert report.ex == 0.0
        telemetry = report.telemetry
        # The profile executor refuses each prediction on its dialect
        # screen without handing it to SQLite.
        assert telemetry.dialect_rejections >= 10
        assert telemetry.dialect_checked >= 10
        assert telemetry.dialect_findings >= 10
        assert "dlct.function-availability" in telemetry.diagnostics

    def test_same_sql_executes_on_sqlite_axis(self, dev_set):
        approach = DialectBreakingApproach(_first_tables(dev_set))
        observer = Observer(seed=0)
        report = evaluate_approach(
            approach, dev_set, limit=10, observer=observer
        )
        telemetry = report.telemetry
        assert telemetry.dialect_rejections == 0
        assert telemetry.dialect_checked == 0

    def test_diagnostics_summary_reports_dialect_block(self, dev_set):
        approach = DialectBreakingApproach(_first_tables(dev_set))
        observer = Observer(seed=0)
        report = evaluate_approach(
            approach, dev_set, limit=6, observer=observer,
            dialect="postgres",
        )
        summary = diagnostics_summary(report)
        block = summary["dialect"]
        assert block["name"] == "postgres"
        assert block["checked"] >= 6
        assert block["rejections"] >= 6
        assert set(block["rules"]) == {"dlct.function-availability"}


class TestTestSuitesRunOnSqlite:
    """TS suites execute on SQLite on both axes, so a prediction the
    Postgres profile refuses scores EX=False and can still score TS=True
    (documented in ``evaluate_approach`` and docs/dialects.md)."""

    def test_refused_prediction_keeps_its_ts(self, dev_set):
        from repro.eval import build_test_suite
        from repro.spider.dataset import Dataset

        counting = [ex for ex in dev_set if "COUNT(*)" in ex.sql]
        assert len(counting) >= 4
        subset = Dataset(
            name="count", examples=counting, databases=dev_set.databases
        )
        suites = {
            db_id: build_test_suite(
                dev_set.database(db_id),
                [ex.sql for ex in counting if ex.db_id == db_id],
                folds=2, seed=7,
            )
            for db_id in subset.db_ids()
        }
        # Legal on SQLite, refused by the Postgres profile (no IFNULL).
        approach = OracleApproach(
            lookup={
                (ex.db_id, ex.question): ex.sql.replace(
                    "COUNT(*)", "IFNULL(COUNT(*), 0)"
                )
                for ex in counting
            }
        )
        try:
            lite = evaluate_approach(approach, subset, test_suites=suites)
            pg = evaluate_approach(
                approach, subset, test_suites=suites, dialect="postgres"
            )
        finally:
            for suite in suites.values():
                suite.close()
        assert [(o.ex, o.ts) for o in lite.outcomes] == [(True, True)] * len(counting)
        assert [(o.ex, o.ts) for o in pg.outcomes] == [(False, True)] * len(counting)
