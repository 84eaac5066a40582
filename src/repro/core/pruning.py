"""Schema pruning (§IV-A): classifier scores + Steiner-tree connectivity.

The pruner keeps tables whose relevance probability exceeds τ_p, connects
them through the schema graph by solving the Steiner Tree Problem, and —
for recall — admits the highest-scoring sub-threshold table that is
adjacent to the kept subgraph (the "redundant boundary").  Kept tables
retain their over-threshold columns, their primary key, and enough extra
columns to reach τ_n.

``use_steiner=False`` reproduces the RESDSQL-style baseline pruning
(top-k₁ tables, top-k₂ columns, no connectivity) for the Table-6 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plm.classifier import SchemaItemClassifier
from repro.schema import Database, Schema, SchemaGraph


@dataclass
class SchemaPruner:
    """Prunes a database schema for one question."""

    classifier: SchemaItemClassifier
    tau_p: float = 0.5
    tau_n: int = 5
    use_steiner: bool = True
    topk_tables: int = 4    # RESDSQL-style fallback parameters
    topk_columns: int = 5

    def prune(self, question: str, database: Database) -> Schema:
        """Return the pruned schema for a question."""
        schema = database.schema
        table_probs, column_probs = self.classifier.score_schema(
            question, schema, database
        )
        if self.use_steiner:
            kept_tables = self._steiner_tables(schema, table_probs)
        else:
            ranked = sorted(table_probs, key=lambda t: -table_probs[t])
            kept_tables = set(ranked[: self.topk_tables])
        keep: dict = {}
        for table_key in kept_tables:
            keep[table_key] = self._columns_for(
                schema, table_key, column_probs
            )
        pruned = schema.subset(keep)
        if not pruned.tables:
            # Degenerate case: keep the single most likely table whole.
            best = max(table_probs, key=lambda t: table_probs[t])
            pruned = schema.subset(
                {best: [c.key for c in schema.table(best).columns]}
            )
        return pruned

    # -- table selection ---------------------------------------------------------

    def _steiner_tables(self, schema: Schema, table_probs: dict) -> set:
        graph = SchemaGraph(schema)
        terminals = {t for t, p in table_probs.items() if p > self.tau_p}
        if not terminals:
            terminals = {max(table_probs, key=lambda t: table_probs[t])}
        kept = graph.steiner_tree(terminals) or set(terminals)
        # Redundant boundary (§IV-A2): the best sub-threshold table with an
        # edge into the kept subgraph is admitted for recall.
        below = sorted(
            (
                (p, t)
                for t, p in table_probs.items()
                if t not in kept and p <= self.tau_p
            ),
            reverse=True,
        )
        for prob, table in below:
            if any(n in kept for n in graph.neighbors(table)):
                kept.add(table)
                break
        return kept

    # -- column selection ---------------------------------------------------------

    def _columns_for(
        self, schema: Schema, table_key: str, column_probs: dict
    ) -> list:
        table = schema.table(table_key)
        scored = sorted(
            ((column_probs.get((table_key, c.key), 0.0), c.key) for c in table.columns),
            reverse=True,
        )
        if self.use_steiner:
            kept = [c for p, c in scored if p > self.tau_p]
            # τ_n: keep a minimum number of columns for table semantics.
            for p, c in scored:
                if len(kept) >= self.tau_n:
                    break
                if c not in kept:
                    kept.append(c)
        else:
            kept = [c for _, c in scored[: self.topk_columns]]
        # Foreign-key columns that connect kept tables must survive, or the
        # pruned schema loses its join paths.
        for fk in schema.foreign_keys:
            src_t, src_c, dst_t, dst_c = fk.normalized()
            if src_t == table_key and src_c not in kept:
                kept.append(src_c)
            if dst_t == table_key and dst_c not in kept:
                kept.append(dst_c)
        return kept
