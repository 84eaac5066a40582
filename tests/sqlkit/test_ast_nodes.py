"""The AST's structural helpers: ``clone`` and ``Node.children``."""

import copy
from dataclasses import fields

import pytest

from repro.sqlkit import parse_sql
from repro.sqlkit.ast_nodes import (
    ColumnRef,
    Comparison,
    Literal,
    Node,
    Query,
    SelectCore,
    SelectItem,
    clone,
    walk,
)
from repro.sqlkit.render import render_sql


@pytest.fixture(scope="module")
def gold_queries(small_benchmark):
    examples = [
        *small_benchmark.train.examples,
        *small_benchmark.dev.examples,
    ]
    return [parse_sql(ex.sql) for ex in examples]


def _all_nodes(value, seen=None) -> list:
    """Every Node reachable through any attribute, list or tuple."""
    seen = {} if seen is None else seen
    if isinstance(value, Node):
        if id(value) not in seen:
            seen[id(value)] = value
            for item in vars(value).values():
                _all_nodes(item, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _all_nodes(item, seen)
    return list(seen.values())


def _fields_children(node: Node) -> list:
    """Direct children as a ``dataclasses.fields()`` walk yields them."""
    out = []
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, (list, tuple)):
            out.extend(item for item in value if isinstance(item, Node))
    return out


class TestClone:
    def test_corpus_queries_copy_exactly(self, gold_queries):
        assert len(gold_queries) > 100
        for query in gold_queries:
            copied = clone(query)
            assert copied == query
            assert render_sql(copied) == render_sql(query)
            originals = {id(n) for n in _all_nodes(query)}
            assert not originals & {id(n) for n in _all_nodes(copied)}

    def test_copy_is_independent(self):
        query = parse_sql("SELECT name FROM player WHERE age >= 30")
        copied = clone(query)
        copied.core.where.right.value = 99
        copied.core.items.append(SelectItem(expr=ColumnRef("goals")))
        assert render_sql(query) == "SELECT name FROM player WHERE age >= 30"

    def test_shared_node_is_copied_once(self):
        column = ColumnRef("age")
        core = SelectCore(
            items=[SelectItem(expr=column)],
            where=Comparison(op=">", left=column, right=Literal.number(3)),
        )
        copied = clone(Query(core=core))
        assert copied.core.items[0].expr is copied.core.where.left
        assert copied.core.items[0].expr is not column
        reference = copy.deepcopy(Query(core=core))
        assert copied == reference


class TestChildren:
    def test_matches_fields_walk(self, gold_queries):
        for query in gold_queries:
            for node in walk(query):
                if isinstance(node, Query):
                    continue  # Query overrides children()
                assert [id(c) for c in node.children()] == [
                    id(c) for c in _fields_children(node)
                ]
