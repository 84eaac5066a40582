"""Dialect portability axis — not a paper table.

The same zero-shot workload evaluates once on the native SQLite backend
and once on the simulated Postgres profile.  Two contracts gate the
axis, and the per-dialect analyzer and refusal counts land in
``results.json`` under ``dialects``:

* **SQLite byte-identity** — the renderer's SQLite output is exactly
  what it was before the dialect axis existed; the new machinery must
  be invisible on the native path.
* **Postgres score parity on this workload** — the mock LLM emits
  SQLite-surface SQL whose legal subset renders identically on
  Postgres, so aggregate EM/EX must match across the axes while the
  failure vocabulary (error codes, static rejections) changes.
"""

import pytest

from benchmarks.common import print_table
from benchmarks.conftest import LLM_SEED
from repro import api
from repro.eval import evaluate_approach
from repro.llm import CHATGPT, MockLLM
from repro.obs import Observer
from repro.sqlkit import parse_sql, render_sql
from repro.sqlkit.render import DIALECTS

SUBSET = 150


def make_approach():
    return api.create("zero", llm=MockLLM(CHATGPT, seed=LLM_SEED))


def run(corpus, suites, dialect, observer=None):
    return evaluate_approach(
        make_approach(), corpus.dev, test_suites=suites, limit=SUBSET,
        dialect=dialect, observer=observer,
    )


@pytest.fixture(scope="module")
def axis_runs(corpus, suites):
    return {
        "sqlite": run(corpus, suites, "sqlite", observer=Observer()),
        "postgres": run(corpus, suites, "postgres", observer=Observer()),
    }


def test_sqlite_rendering_has_zero_drift(corpus):
    for ex in list(corpus.dev)[:SUBSET]:
        assert render_sql(parse_sql(ex.sql), "sqlite") == render_sql(
            parse_sql(ex.sql)
        )


def test_gold_corpus_renders_cleanly_for_every_dialect(corpus):
    for dialect in DIALECTS:
        for ex in list(corpus.dev)[:SUBSET]:
            rendered = render_sql(parse_sql(ex.sql), dialect)
            assert render_sql(parse_sql(rendered), dialect) == rendered


def test_dialect_axis_economics(axis_runs, record):
    lite, pg = axis_runs["sqlite"], axis_runs["postgres"]
    assert (lite.em, lite.ex, lite.ts) == (pg.em, pg.ex, pg.ts), (
        "aggregate scores must agree across execution axes on this workload"
    )
    entries = {}
    rows = []
    for name, report in (("sqlite", lite), ("postgres", pg)):
        telemetry = report.telemetry
        entry = {
            "tasks": SUBSET,
            "em": round(report.em, 4),
            "ex": round(report.ex, 4),
            "ts": round(report.ts, 4),
            "dialect_checked": telemetry.dialect_checked,
            "dialect_findings": telemetry.dialect_findings,
            "dialect_rejections": telemetry.dialect_rejections,
            "dlct_rules": {
                rule: count
                for rule, count in telemetry.diagnostics.items()
                if rule.startswith("dlct.")
            },
        }
        entries[name] = entry
        rows.append([
            name, f"{report.em:.1%}", f"{report.ex:.1%}", f"{report.ts:.1%}",
            str(entry["dialect_rejections"]),
        ])
    print_table(
        f"Dialect axis — {SUBSET} tasks, zero-shot",
        ["Axis", "EM", "EX", "TS", "Rejections"],
        rows,
    )
    entries["scores_identical_across_axes"] = True
    record("dialects", entries)
    assert pg.telemetry.dialect_checked > 0
