"""The executor's typed stats() snapshot and multi-thread safety."""

import threading

import pytest

from repro.schema import (
    Column,
    Database,
    ExecutorStats,
    Schema,
    SQLiteExecutor,
    Table,
)


@pytest.fixture
def db():
    schema = Schema(
        db_id="tiny",
        tables=[
            Table(
                name="t",
                primary_key="id",
                columns=[Column("id", "integer"), Column("v", "text")],
            )
        ],
    )
    return Database(schema=schema, rows={"t": [(1, "a"), (2, "b")]})


class TestExecutorStats:
    def test_snapshot_counts(self, db):
        with SQLiteExecutor(cache_size=16) as executor:
            executor.register(db)
            executor.execute("tiny", "SELECT * FROM t")
            executor.execute("tiny", "SELECT * FROM t")  # cached
            executor.execute("tiny", "SELECT id FROM t")
            stats = executor.stats()
            assert isinstance(stats, ExecutorStats)
            assert stats.executed == 2  # two distinct statements ran
            assert stats.cache_hits == 1
            assert stats.cache_misses == 2
            assert stats.cache_size == 2
            assert stats.cache_capacity == 16
            assert stats.databases == 1
            assert stats.timeouts == 0

    def test_hit_rate(self):
        assert ExecutorStats().cache_hit_rate == 0.0
        assert ExecutorStats(cache_hits=3, cache_misses=1).cache_hit_rate == 0.75

    def test_stats_is_immutable(self, db):
        with SQLiteExecutor() as executor:
            executor.register(db)
            stats = executor.stats()
            with pytest.raises(AttributeError):
                stats.executed = 99

    def test_concurrent_execution(self, db):
        """Many threads on one executor: no races, coherent counters."""
        with SQLiteExecutor(cache_size=64) as executor:
            executor.register(db)
            errors = []

            def work(tag):
                try:
                    for i in range(50):
                        result = executor.execute(
                            "tiny", f"SELECT v FROM t WHERE id = {i % 3}"
                        )
                        assert result.ok
                except Exception as exc:  # noqa: broad-except - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = executor.stats()
            assert stats.cache_hits + stats.cache_misses == 200
            assert stats.executed == stats.cache_misses
