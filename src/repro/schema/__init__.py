"""Database schema model, schema graph, and SQLite execution backend."""

from repro.schema.dialect_backend import (
    PostgresProfileExecutor,
    make_executor,
)
from repro.schema.errorinfo import (
    ErrorInfo,
    exception_text,
    normalize_sqlite_error,
    postgresify,
)
from repro.schema.graph import SchemaGraph
from repro.schema.model import Column, Database, ForeignKey, Schema, Table
from repro.schema.sqlite_backend import (
    ExecutionResult,
    ExecutorStats,
    SQLiteExecutor,
    create_sqlite,
)

__all__ = [
    "Column",
    "Database",
    "ForeignKey",
    "Schema",
    "Table",
    "SchemaGraph",
    "ErrorInfo",
    "ExecutionResult",
    "ExecutorStats",
    "SQLiteExecutor",
    "create_sqlite",
    "exception_text",
    "normalize_sqlite_error",
    "PostgresProfileExecutor",
    "make_executor",
    "postgresify",
]
