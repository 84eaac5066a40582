"""The executor's counts in the metrics registry, and multi-thread safety."""

import threading

import pytest

from repro.obs import Observer
from repro.schema import (
    Column,
    Database,
    Schema,
    SQLiteExecutor,
    Table,
)
from tests.observed import observed


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


def executor_counts(metrics) -> dict:
    """The ``executor.*`` counters of a snapshot, keyed by short name."""
    names = ("statements", "cache_hits", "cache_misses", "timeouts")
    return {name: metrics.counter(f"executor.{name}") for name in names}


class TestExecutorStats:
    def test_snapshot_counts(self, db):
        with SQLiteExecutor(cache_size=16) as executor:
            executor.register(db)

            def run():
                executor.execute("tiny", "SELECT * FROM t")
                executor.execute("tiny", "SELECT * FROM t")  # cached
                executor.execute("tiny", "SELECT id FROM t")

            _, metrics = observed(run)
            assert executor_counts(metrics) == {
                "statements": 2,  # two distinct statements ran
                "cache_hits": 1,
                "cache_misses": 2,
                "timeouts": 0,
            }
            assert executor.cache_hits == 1

    def test_concurrent_execution(self, db):
        """Many threads on one executor: no races, coherent counters."""
        with SQLiteExecutor(cache_size=64) as executor:
            executor.register(db)
            observer = Observer()
            errors = []

            def work():
                try:
                    with observer.activate():
                        for i in range(50):
                            result = executor.execute(
                                "tiny", f"SELECT v FROM t WHERE id = {i % 3}"
                            )
                            assert result.ok
                except Exception as exc:  # noqa: broad-except - collected
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            counts = executor_counts(observer.metrics.snapshot())
            assert counts["cache_hits"] + counts["cache_misses"] == 200
            # Three distinct statements: each runs exactly once.
            assert counts["statements"] == counts["cache_misses"] == 3
            assert executor.cache_hits == counts["cache_hits"]
