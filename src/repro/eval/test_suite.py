"""Test-Suite (TS) accuracy — distilled database variants.

Following Zhong et al. [31], EX's false positives (different queries,
same result on one lucky database) are caught by executing on a *suite*
of databases chosen to distinguish the gold query from plausible
near-miss mutants.  We fuzz each database into candidate variants,
score every candidate by how many (gold, mutant) pairs it separates,
and keep the top ``folds`` — a laptop-scale distillation of the paper's
100-fold suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.schema import Database, SQLiteExecutor
from repro.schema.model import Schema
from repro.sqlkit.ast_nodes import (
    Agg,
    Comparison,
    Query,
    clone,
    walk,
)
from repro.sqlkit.errors import SQLError
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.render import render_sql
from repro.eval.execution import is_ordered, results_equal
from repro.utils.rng import derive_rng


@dataclass
class TestSuite:
    """A base database plus its distilled variants, ready to execute."""

    base: Database
    variants: list = field(default_factory=list)
    _executor: SQLiteExecutor = field(default_factory=SQLiteExecutor, repr=False)

    def __post_init__(self) -> None:
        self._executor.register(self.base, key="base")
        for i, variant in enumerate(self.variants):
            self._executor.register(variant, key=f"variant_{i}")

    def keys(self) -> list[str]:
        """Registry keys of the base database and all variants."""
        return ["base"] + [f"variant_{i}" for i in range(len(self.variants))]

    def match(self, gold_sql: str, predicted_sql: str) -> bool:
        """TS accuracy: the prediction must match gold on every database."""
        ordered = is_ordered(gold_sql)
        for key in self.keys():
            gold = self._executor.execute(key, gold_sql)
            if not gold.ok:
                continue  # a fuzzed variant may break a gold edge case
            pred = self._executor.execute(key, predicted_sql)
            if not pred.ok:
                return False
            if not results_equal(gold, pred, ordered=ordered):
                return False
        return True

    def close(self) -> None:
        """Release the underlying SQLite resources."""
        self._executor.close()


def build_test_suite(
    database: Database,
    gold_sqls: list,
    folds: int = 8,
    seed: int = 0,
    candidate_factor: int = 3,
    max_gold: int = 20,
) -> TestSuite:
    """Build a distilled test suite for one database."""
    rng = derive_rng(seed, "test_suite", database.db_id)
    candidates = [
        fuzz_database(database, i, seed) for i in range(folds * candidate_factor)
    ]
    sample = list(gold_sqls[:max_gold])
    pairs = _distinguishing_pairs(sample)
    scored = _score_candidates(database, candidates, pairs)
    order = np.argsort([-s for s in scored], kind="stable")[:folds]
    chosen = [candidates[int(i)] for i in order]
    return TestSuite(base=database, variants=chosen)


def fuzz_database(database: Database, index: int, seed: int) -> Database:
    """Produce one fuzzed variant of a database.

    Row counts change by up to ±30%; non-key values are resampled from the
    original column's value pool (numerics occasionally perturbed); foreign
    keys resample from the new parent keys with a withheld subset so
    exclusion semantics stay exercised.
    """
    rng = derive_rng(seed, "fuzz", database.db_id, index)
    schema = database.schema
    fk_cols = {
        (fk.normalized()[0], fk.normalized()[1]): fk.normalized()[2]
        for fk in schema.foreign_keys
    }
    new_rows: dict[str, list[tuple]] = {}
    for table in _parents_first(schema):
        original = database.table_rows(table.name)
        if not original:
            new_rows[table.key] = []
            continue
        n = max(2, int(round(len(original) * float(rng.uniform(0.7, 1.3)))))
        pk = (table.primary_key or "").lower()
        columns = []
        for ci, col in enumerate(table.columns):
            pool = [r[ci] for r in original]
            if col.key == pk:
                columns.append(list(range(1, n + 1)))
            elif (table.key, col.key) in fk_cols:
                parent_key = fk_cols[(table.key, col.key)]
                parent_ids = [r[0] for r in new_rows.get(parent_key, [])]
                columns.append(_sample_fk(parent_ids, n, rng))
            else:
                columns.append(_sample_column(pool, n, col.col_type, rng))
        new_rows[table.key] = [tuple(col[i] for col in columns) for i in range(n)]
    return Database(schema=schema, rows=new_rows)


def _parents_first(schema: Schema):
    parent_names = {fk.normalized()[2] for fk in schema.foreign_keys}
    parents = [t for t in schema.tables if t.key in parent_names]
    children = [t for t in schema.tables if t.key not in parent_names]
    return parents + children


def _sample_fk(parent_ids: list, n: int, rng: np.random.Generator) -> list:
    if not parent_ids:
        return [None] * n
    usable = parent_ids
    if len(parent_ids) >= 4:
        withheld = set(
            rng.choice(parent_ids, size=len(parent_ids) // 4, replace=False).tolist()
        )
        usable = [p for p in parent_ids if p not in withheld] or parent_ids
    return [int(rng.choice(usable)) for _ in range(n)]


def _sample_column(pool: list, n: int, col_type: str, rng: np.random.Generator) -> list:
    values = [v for v in pool if v is not None] or [None]
    out = []
    for _ in range(n):
        value = values[int(rng.integers(0, len(values)))]
        if (
            col_type in ("integer", "real")
            and isinstance(value, (int, float))
            and rng.random() < 0.3
        ):
            delta = 1 + int(abs(value) * 0.1)
            value = value + int(rng.integers(-delta, delta + 1))
            if col_type == "integer":
                value = int(value)
        out.append(value)
    return out


# -- distillation ---------------------------------------------------------------


def generate_mutants(sql: str, limit: int = 6) -> list:
    """Plausible near-miss mutations of a gold query."""
    try:
        gold = parse_sql(sql)
    except SQLError:
        return []
    mutants: list[str] = []

    def add(query: Query) -> None:
        """Accumulate another usage record into this one."""
        text = render_sql(query)
        if text != sql and text not in mutants:
            mutants.append(text)

    flipped = clone(gold)
    flipped.core.distinct = not flipped.core.distinct
    add(flipped)

    comparison_ops = {">": ">=", ">=": ">", "<": "<=", "<=": "<", "=": "!="}
    count = 0
    for node in walk(gold):
        if isinstance(node, Comparison) and node.op in comparison_ops and count < 3:
            mutated = clone(gold)
            for twin in walk(mutated):
                if (
                    isinstance(twin, Comparison)
                    and twin.op == node.op
                    and render_sql(twin) == render_sql(node)
                ):
                    twin.op = comparison_ops[node.op]
                    break
            add(mutated)
            count += 1

    if gold.core.order_by:
        mutated = clone(gold)
        item = mutated.core.order_by[0]
        item.direction = "ASC" if item.direction == "DESC" else "DESC"
        add(mutated)

    if gold.core.limit is not None:
        mutated = clone(gold)
        mutated.core.limit = gold.core.limit + 1
        add(mutated)

    for node in walk(gold):
        if isinstance(node, Agg) and node.args:
            mutated = clone(gold)
            for twin in walk(mutated):
                if isinstance(twin, Agg) and render_sql(twin) == render_sql(node):
                    twin.distinct = not twin.distinct
                    break
            add(mutated)
            break

    return mutants[:limit]


def _distinguishing_pairs(gold_sqls: list) -> list:
    pairs = []
    for sql in gold_sqls:
        for mutant in generate_mutants(sql):
            pairs.append((sql, mutant))
    return pairs


def _score_candidates(database: Database, candidates: list, pairs: list) -> list:
    scores = []
    for candidate in candidates:
        with SQLiteExecutor() as executor:
            key = executor.register(candidate, key="cand")
            score = 0
            for gold_sql, mutant_sql in pairs:
                gold = executor.execute(key, gold_sql)
                mutant = executor.execute(key, mutant_sql)
                if not gold.ok:
                    continue
                if not mutant.ok or not results_equal(gold, mutant):
                    score += 1
            scores.append(score)
    return scores
