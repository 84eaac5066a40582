"""Schema graph: tables as vertices, foreign-primary key pairs as edges.

Used by the Steiner-tree schema-pruning strategy (§IV-A2) and by the
Missing-Table repair heuristic (§IV-D1), which both need join-path
reasoning over the schema.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

import networkx as nx

from repro.schema.model import ForeignKey, Schema
from repro.utils.text import normalize_identifier


class SchemaGraph:
    """An undirected graph over a schema's tables.

    Every edge carries the foreign key that induced it; all edges have unit
    weight as in §IV-A2.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.graph = nx.Graph()
        for table in schema.tables:
            self.graph.add_node(table.key)
        for fk in schema.foreign_keys:
            src, _, dst, _ = fk.normalized()
            if src != dst and self.graph.has_node(src) and self.graph.has_node(dst):
                self.graph.add_edge(src, dst, fk=fk, weight=1)

    def neighbors(self, table: str) -> list[str]:
        """Adjacent tables (via foreign keys), sorted."""
        key = normalize_identifier(table)
        if not self.graph.has_node(key):
            return []
        return sorted(self.graph.neighbors(key))

    def edge_fk(self, a: str, b: str) -> Optional[ForeignKey]:
        """The foreign key connecting two adjacent tables, if any."""
        a, b = normalize_identifier(a), normalize_identifier(b)
        if self.graph.has_edge(a, b):
            return self.graph.edges[a, b]["fk"]
        return None

    def join_path(self, a: str, b: str) -> Optional[list[str]]:
        """Shortest chain of tables connecting ``a`` to ``b`` (inclusive)."""
        a, b = normalize_identifier(a), normalize_identifier(b)
        if not (self.graph.has_node(a) and self.graph.has_node(b)):
            return None
        try:
            return nx.shortest_path(self.graph, a, b)
        except nx.NetworkXNoPath:
            return None

    def steiner_tree(self, terminals: Iterable[str]) -> set[str]:
        """Smallest connected subgraph containing all ``terminals``.

        §IV-A2 reduces pruning to the Steiner Tree Problem and solves it
        with a burst (exhaustive) search, feasible because schemas are
        small.  We enumerate candidate Steiner-node subsets in increasing
        size and return the first that connects all terminals; for
        pathological inputs (> ``_BURST_LIMIT`` candidate nodes) we fall
        back to unioning pairwise shortest paths, which is the classic
        2-approximation.
        """
        terms = {normalize_identifier(t) for t in terminals}
        terms = {t for t in terms if self.graph.has_node(t)}
        if not terms:
            return set()
        if len(terms) == 1:
            return set(terms)

        # Only consider components that actually contain terminals.
        reachable = set()
        for component in nx.connected_components(self.graph):
            if component & terms:
                reachable |= component
        candidates = sorted(reachable - terms)

        if self._connected(terms):
            return set(terms)

        if len(candidates) <= self._BURST_LIMIT:
            for size in range(1, len(candidates) + 1):
                best: Optional[set[str]] = None
                for extra in combinations(candidates, size):
                    nodes = terms | set(extra)
                    if self._connected(nodes):
                        if best is None or sorted(nodes) < sorted(best):
                            best = nodes
                if best is not None:
                    return best
        # Fallback: union of pairwise shortest paths.
        nodes = set(terms)
        ordered = sorted(terms)
        anchor = ordered[0]
        for other in ordered[1:]:
            path = self.join_path(anchor, other)
            if path:
                nodes |= set(path)
        return nodes

    _BURST_LIMIT = 12

    def _connected(self, nodes: set[str]) -> bool:
        """True if ``nodes`` induce a connected subgraph (singletons are
        connected; disconnected terminals can never be)."""
        sub = self.graph.subgraph(nodes)
        if sub.number_of_nodes() != len(nodes):
            return False
        return nx.is_connected(sub) if len(nodes) > 1 else True
