"""Tests for the schema graph and Steiner-tree pruning support."""

import pytest

from repro.schema import Column, ForeignKey, Schema, SchemaGraph, Table


def make_chain_schema(n=5):
    """t0 - t1 - t2 - ... linked by foreign keys."""
    tables = [
        Table(name=f"t{i}", primary_key="id", columns=[Column("id", "integer")])
        for i in range(n)
    ]
    fks = [ForeignKey(f"t{i}", "id", f"t{i + 1}", "id") for i in range(n - 1)]
    return Schema(db_id="chain", tables=tables, foreign_keys=fks)


def make_star_schema():
    """hub connected to a, b, c; d isolated."""
    tables = [
        Table(name=name, primary_key="id", columns=[Column("id", "integer")])
        for name in ["hub", "a", "b", "c", "d"]
    ]
    fks = [ForeignKey(t, "id", "hub", "id") for t in ["a", "b", "c"]]
    return Schema(db_id="star", tables=tables, foreign_keys=fks)


class TestGraphBasics:
    def test_neighbors(self):
        g = SchemaGraph(make_star_schema())
        assert g.neighbors("hub") == ["a", "b", "c"]
        assert g.neighbors("d") == []

    def test_edge_fk(self):
        g = SchemaGraph(make_star_schema())
        fk = g.edge_fk("a", "hub")
        assert fk is not None and fk.src_table == "a"
        assert g.edge_fk("a", "b") is None

    def test_join_path(self):
        g = SchemaGraph(make_chain_schema())
        assert g.join_path("t0", "t3") == ["t0", "t1", "t2", "t3"]

    def test_join_path_disconnected(self):
        g = SchemaGraph(make_star_schema())
        assert g.join_path("a", "d") is None

    def test_self_referencing_fk_ignored(self):
        schema = Schema(
            db_id="s",
            tables=[Table(name="t", columns=[Column("id"), Column("parent")])],
            foreign_keys=[ForeignKey("t", "parent", "t", "id")],
        )
        g = SchemaGraph(schema)
        assert g.neighbors("t") == []


class TestSteinerTree:
    def test_single_terminal(self):
        g = SchemaGraph(make_chain_schema())
        assert g.steiner_tree(["t2"]) == {"t2"}

    def test_adjacent_terminals_need_no_steiner_points(self):
        g = SchemaGraph(make_chain_schema())
        assert g.steiner_tree(["t1", "t2"]) == {"t1", "t2"}

    def test_intermediate_tables_included(self):
        g = SchemaGraph(make_chain_schema())
        assert g.steiner_tree(["t0", "t3"]) == {"t0", "t1", "t2", "t3"}

    def test_star_terminals_pull_in_hub(self):
        g = SchemaGraph(make_star_schema())
        assert g.steiner_tree(["a", "b"]) == {"a", "b", "hub"}

    def test_minimality_over_alternative(self):
        # Diamond: a-b-d and a-c-d; terminals {a, d} need exactly one of b/c.
        tables = [
            Table(name=n, primary_key="id", columns=[Column("id", "integer")])
            for n in ["a", "b", "c", "d"]
        ]
        fks = [
            ForeignKey("a", "id", "b", "id"),
            ForeignKey("b", "id", "d", "id"),
            ForeignKey("a", "id", "c", "id"),
            ForeignKey("c", "id", "d", "id"),
        ]
        g = SchemaGraph(Schema(db_id="diamond", tables=tables, foreign_keys=fks))
        tree = g.steiner_tree(["a", "d"])
        assert len(tree) == 3
        assert {"a", "d"} <= tree

    def test_unknown_terminals_ignored(self):
        g = SchemaGraph(make_chain_schema())
        assert g.steiner_tree(["nope"]) == set()

    def test_disconnected_terminals_fall_back(self):
        g = SchemaGraph(make_star_schema())
        tree = g.steiner_tree(["a", "d"])
        # d cannot connect; at minimum both terminals are returned.
        assert {"a", "d"} <= tree

    def test_large_schema_unions_shortest_paths(self):
        # 57 candidate Steiner nodes exceed the burst limit: the search
        # falls back to unioning shortest paths from the first terminal.
        g = SchemaGraph(make_chain_schema(60))
        tree = g.steiner_tree(["t0", "t30", "t59"])
        assert tree == {f"t{i}" for i in range(60)}
