"""Tests for SQLite materialization and execution."""

import pytest

from repro.schema import (
    Column,
    Database,
    ForeignKey,
    Schema,
    SQLiteExecutor,
    Table,
    create_sqlite,
)


@pytest.fixture
def db():
    schema = Schema(
        db_id="shop",
        tables=[
            Table(
                name="customer",
                primary_key="id",
                columns=[
                    Column("id", "integer"),
                    Column("name", "text"),
                    Column("country", "text"),
                ],
            ),
            Table(
                name="orders",
                primary_key="id",
                columns=[
                    Column("id", "integer"),
                    Column("customer_id", "integer"),
                    Column("total", "real"),
                ],
            ),
        ],
        foreign_keys=[ForeignKey("orders", "customer_id", "customer", "id")],
    )
    return Database(
        schema=schema,
        rows={
            "customer": [(1, "Ada", "UK"), (2, "Bo", "USA"), (3, "Cy", "UK")],
            "orders": [(1, 1, 10.0), (2, 1, 25.0), (3, 2, 5.0)],
        },
    )


class TestMaterialization:
    def test_tables_created_with_rows(self, db):
        conn = create_sqlite(db)
        count = conn.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
        assert count == 3

    def test_empty_table_created(self, db):
        db.rows["orders"] = []
        conn = create_sqlite(db)
        assert conn.execute("SELECT COUNT(*) FROM orders").fetchone()[0] == 0


class TestExecutor:
    def test_execute_success(self, db):
        with SQLiteExecutor() as ex:
            key = ex.register(db)
            result = ex.execute(key, "SELECT name FROM customer WHERE country = 'UK'")
        assert result.ok
        assert sorted(result.rows) == [("Ada",), ("Cy",)]

    def test_execute_join(self, db):
        with SQLiteExecutor() as ex:
            key = ex.register(db)
            result = ex.execute(
                key,
                "SELECT c.name, SUM(o.total) FROM customer AS c "
                "JOIN orders AS o ON c.id = o.customer_id GROUP BY c.name",
            )
        assert result.ok
        assert ("Ada", 35.0) in result.rows

    def test_execute_error_captured(self, db):
        with SQLiteExecutor() as ex:
            key = ex.register(db)
            result = ex.execute(key, "SELECT nope FROM customer")
        assert not result.ok
        assert "nope" in result.error

    def test_unknown_database(self):
        with SQLiteExecutor() as ex:
            result = ex.execute("ghost", "SELECT 1")
        assert not result.ok

    def test_result_caching_returns_same_object(self, db):
        with SQLiteExecutor() as ex:
            key = ex.register(db)
            first = ex.execute(key, "SELECT 1")
            second = ex.execute(key, "SELECT 1")
        assert first is second

    def test_row_cap(self, db):
        with SQLiteExecutor(max_rows=2) as ex:
            key = ex.register(db)
            result = ex.execute(key, "SELECT * FROM customer")
        assert not result.ok
        assert "row cap" in result.error

    def test_sorted_rows_handles_mixed_types(self, db):
        with SQLiteExecutor() as ex:
            key = ex.register(db)
            result = ex.execute(key, "SELECT country FROM customer")
            assert result.sorted_rows() == sorted(
                result.sorted_rows()
            )

    def test_register_idempotent(self, db):
        with SQLiteExecutor() as ex:
            key1 = ex.register(db)
            key2 = ex.register(db)
        assert key1 == key2 == "shop"


@pytest.fixture
def big_db():
    """Enough rows that a 4-way cross join never finishes in test time."""
    schema = Schema(
        db_id="big",
        tables=[
            Table(name="t", primary_key="id", columns=[Column("id", "integer")])
        ],
        foreign_keys=[],
    )
    return Database(schema=schema, rows={"t": [(i,) for i in range(300)]})


class TestStatementTimeout:
    def test_pathological_cross_join_times_out(self, big_db):
        import time as _time

        with SQLiteExecutor(statement_timeout=0.25) as ex:
            key = ex.register(big_db)
            started = _time.monotonic()
            result = ex.execute(key, "SELECT COUNT(*) FROM t a, t b, t c, t d")
            elapsed = _time.monotonic() - started
        assert not result.ok
        assert result.timed_out
        assert "timeout" in result.error
        # Interrupted close to the budget, not after the full cross join.
        assert elapsed < 5.0

    def test_fast_queries_unaffected(self, big_db):
        with SQLiteExecutor(statement_timeout=0.25) as ex:
            key = ex.register(big_db)
            result = ex.execute(key, "SELECT COUNT(*) FROM t")
        assert result.ok
        assert result.rows == [(300,)]
        assert not result.timed_out

    def test_timeout_disabled_with_none(self, big_db):
        with SQLiteExecutor(statement_timeout=None) as ex:
            key = ex.register(big_db)
            result = ex.execute(key, "SELECT MAX(id) FROM t")
        assert result.ok


class TestResultCacheLRU:
    def test_capacity_bounds_cache(self, db):
        with SQLiteExecutor(cache_size=2) as ex:
            key = ex.register(db)
            for i in range(1, 4):
                ex.execute(key, f"SELECT {i}")
            stats = ex.stats()
            assert stats.cache_size == 2
            assert stats.cache_capacity == 2
            assert stats.cache_misses == 3
            assert stats.cache_hits == 0

    def test_hit_and_miss_counters(self, db):
        with SQLiteExecutor() as ex:
            key = ex.register(db)
            ex.execute(key, "SELECT 1")
            ex.execute(key, "SELECT 1")
            ex.execute(key, "SELECT 2")
            stats = ex.stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 2

    def test_eviction_is_least_recently_used(self, db):
        with SQLiteExecutor(cache_size=2) as ex:
            key = ex.register(db)
            first = ex.execute(key, "SELECT 1")
            ex.execute(key, "SELECT 2")
            assert ex.execute(key, "SELECT 1") is first  # refreshes recency
            ex.execute(key, "SELECT 3")  # evicts "SELECT 2"
            assert ex.execute(key, "SELECT 1") is first
            recomputed = ex.execute(key, "SELECT 2")
            assert recomputed.rows == [(2,)]
            assert ex.stats().cache_misses == 4  # 1, 2, 3, and 2 again
