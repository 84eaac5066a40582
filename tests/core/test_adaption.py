"""Tests for the database-adaption repair heuristics (§IV-D1)."""

import pytest

from repro.core.adaption import DatabaseAdapter
from repro.schema import SQLiteExecutor
from repro.spider.domains import domain_by_name


@pytest.fixture(scope="module")
def env():
    db = domain_by_name("soccer").instantiate(0, seed=3)
    executor = SQLiteExecutor()
    adapter = DatabaseAdapter(executor)
    return db, executor, adapter


class TestValidSQLUntouched:
    def test_no_side_effects_on_valid_sql(self, env):
        db, _, adapter = env
        sql = "SELECT name FROM player WHERE goals > 10"
        outcome = adapter.adapt(sql, db)
        assert outcome.sql == sql
        assert not outcome.repaired
        assert outcome.attempts == 0


class TestRepairs:
    def _check(self, env, broken, must_contain=None):
        db, executor, adapter = env
        key = executor.register(db)
        assert not executor.execute(key, broken).ok, "fixture must be broken"
        outcome = adapter.adapt(broken, db)
        assert outcome.repaired, (broken, outcome)
        assert executor.execute(key, outcome.sql).ok
        if must_contain:
            assert must_contain in outcome.sql
        return outcome

    def test_table_column_mismatch(self, env):
        outcome = self._check(
            env,
            "SELECT T2.goals FROM player AS T1 JOIN team AS T2 "
            "ON T1.team_id = T2.id",
            must_contain="T1.goals",
        )
        assert "table_column_mismatch" in outcome.fixes

    def test_column_ambiguity(self, env):
        # 'name' exists in both player and team.
        outcome = self._check(
            env,
            "SELECT name FROM player AS T1 JOIN team AS T2 ON T1.team_id = T2.id",
        )
        assert "column_ambiguity" in outcome.fixes

    def test_missing_table(self, env):
        outcome = self._check(
            env,
            "SELECT name FROM player WHERE city = 'Rome'",
        )
        assert "missing_table" in outcome.fixes
        assert "JOIN" in outcome.sql

    def test_function_hallucination(self, env):
        outcome = self._check(
            env, "SELECT CONCAT(name, ' ', name) FROM player"
        )
        assert "function_hallucination" in outcome.fixes
        assert "CONCAT" not in outcome.sql

    def test_schema_hallucination(self, env):
        outcome = self._check(env, "SELECT name_name FROM player")
        assert "schema_hallucination" in outcome.fixes
        assert "name" in outcome.sql

    def test_aggregation_hallucination(self, env):
        outcome = self._check(
            env, "SELECT COUNT(DISTINCT position, name) FROM player"
        )
        assert "aggregation_hallucination" in outcome.fixes
        assert outcome.sql.count("COUNT") == 2

    def test_unfixable_reported(self, env):
        db, _, adapter = env
        outcome = adapter.adapt("SELEKT garbage", db)
        assert not outcome.repaired

    def test_attempts_capped(self, env):
        db, _, _ = env
        adapter = DatabaseAdapter(SQLiteExecutor(), max_attempts=2)
        outcome = adapter.adapt("SELEKT garbage", db)
        assert outcome.attempts <= 2


class TestRepairMemo:
    """A memo shared across one prompt's samples plans each distinct
    text's repair rounds once and changes no outcome or metric."""

    TEXTS = (
        "SELECT T2.goals FROM player AS T1 JOIN team AS T2 ON T1.team_id = T2.id",
        "SELECT name FROM player WHERE city = 'Rome'",
        "SELECT COUNT(DISTINCT posiion, nme) FROM player WHERE city = 'Rome'",
        "SELECT name FROM ghost",
        "SELEKT garbage",
        "SELECT name FROM player",
    )

    def _run(self, db, texts, memo):
        from repro.obs.runtime import Observer

        adapter = DatabaseAdapter(SQLiteExecutor())
        observer = Observer()
        with observer.activate():
            if memo is None:
                outcomes = [adapter.adapt(text, db) for text in texts]
            else:
                outcomes = [adapter.adapt(text, db, memo=memo) for text in texts]
        counters = {
            key: value
            for key, value in observer.metrics.snapshot().counters.items()
            if key.startswith(("adaption.fix", "analysis.rule"))
        }
        return outcomes, counters

    def test_shared_memo_matches_no_memo(self, env):
        db, _, _ = env
        texts = [text for _ in range(6) for text in self.TEXTS]
        memo: dict = {}
        bare = self._run(db, texts, None)
        memoized = self._run(db, texts, memo)
        assert memoized == bare
        assert bare[1]["adaption.fix{mode=directed}"] == 6 * 7
        # One plan per distinct failing text that reached a repair round.
        assert set(self.TEXTS[:5]) <= set(memo)
        assert len(memo) == 5 + 4  # plus the later rounds' intermediate texts
