"""Domain blueprints: parameterized schemas that materialize into databases.

A :class:`DomainBlueprint` describes one application domain (tables, typed
columns with natural-language surface forms and synonyms, foreign keys,
row-count ranges, and domain-knowledge facts).  Materializing a blueprint
with a variant index and seed yields a concrete :class:`~repro.schema.Database`
with deterministic content.

Data generation is tuned for the evaluation's needs:

* categorical columns draw from small pools, so duplicate values exist —
  this is what makes ``EXCEPT`` (set semantics) and ``NOT IN`` (bag
  semantics) distinguishable at execution time;
* numeric columns draw from coarse grids, so ties exist — distinguishing
  ``ORDER BY x DESC LIMIT 1`` from ``= (SELECT MAX(x))``;
* a fraction of parent rows have no children, so exclusion queries return
  non-empty results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.schema import Column, Database, ForeignKey, Schema, Table
from repro.spider import pools
from repro.utils.rng import derive_rng, stable_hash

# Roles understood by the row generator and the archetype samplers.
ROLES = (
    "pk",        # integer primary key
    "fk",        # integer foreign key
    "name",      # person-like proper noun (distinct-ish)
    "title",     # two-word proper noun
    "category",  # small categorical pool (duplicates guaranteed)
    "numeric",   # graded number (ties possible)
    "year",      # 1950..2020
    "code",      # opaque identifier-ish text (distractor)
    "text",      # free text (distractor)
)


@dataclass
class ColumnBlueprint:
    """Blueprint for one column."""

    name: str
    role: str = "text"
    col_type: str = ""
    natural: str = ""
    synonyms: tuple = ()
    pool: tuple = ()
    low: float = 0.0
    high: float = 100.0
    grid: float = 1.0  # numeric values snap to multiples of this
    is_int: bool = True

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown column role {self.role!r}")
        if not self.col_type:
            if self.role in ("pk", "fk", "year"):
                self.col_type = "integer"
            elif self.role == "numeric":
                self.col_type = "integer" if self.is_int else "real"
            else:
                self.col_type = "text"
        if not self.natural:
            self.natural = self.name.replace("_", " ")

    @property
    def queryable(self) -> bool:
        """Whether archetypes may project/filter on this column."""
        return self.role in ("name", "title", "category", "numeric", "year")


@dataclass
class TableBlueprint:
    """Blueprint for one table."""

    name: str
    columns: list[ColumnBlueprint] = field(default_factory=list)
    natural: str = ""
    synonyms: tuple = ()
    rows: tuple = (8, 16)  # inclusive row-count range
    primary_key: Optional[str] = "id"

    def __post_init__(self) -> None:
        if not self.natural:
            self.natural = self.name.replace("_", " ")
        if self.primary_key and not any(
            c.name == self.primary_key for c in self.columns
        ):
            self.columns.insert(0, ColumnBlueprint(self.primary_key, role="pk"))

    def column(self, name: str) -> ColumnBlueprint:
        """Look up a column by (case-insensitive) name."""
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column blueprint {name!r} in {self.name!r}")


@dataclass(frozen=True)
class DKFact:
    """A domain-knowledge paraphrase: ``phrase`` implies ``column op value``.

    Example: phrase "American" over (singer, country) means
    ``country = 'USA'``.  Spider-DK questions use the phrase; the SQL uses
    the raw condition.
    """

    phrase: str
    table: str
    column: str
    op: str
    value: object


@dataclass
class DomainBlueprint:
    """A full domain: tables, foreign keys, and domain knowledge."""

    name: str
    tables: list[TableBlueprint] = field(default_factory=list)
    fks: list[tuple] = field(default_factory=list)  # (src_t, src_c, dst_t, dst_c)
    dk_facts: list[DKFact] = field(default_factory=list)

    def table(self, name: str) -> TableBlueprint:
        """Look up a table by (case-insensitive) name."""
        for tbl in self.tables:
            if tbl.name == name:
                return tbl
        raise KeyError(f"no table blueprint {name!r} in domain {self.name!r}")

    def parent_child_pairs(self) -> list[tuple]:
        """(child_table, fk_column, parent_table, pk_column) for each FK."""
        return list(self.fks)

    # -- materialization ----------------------------------------------------

    def instantiate(self, variant: int, seed: int) -> Database:
        """Materialize a concrete database for the given variant.

        Variant 0 uses base identifiers; higher variants keep the same
        structure (identifiers included — Spider variants of a domain share
        vocabulary) but regenerate all row content with an independent seed,
        and get a distinct ``db_id``.
        """
        rng = derive_rng(seed, "domain", self.name, variant)
        db_id = self.name if variant == 0 else f"{self.name}_{variant}"
        schema = self._build_schema(db_id)
        rows = self._build_rows(rng)
        return Database(schema=schema, rows=rows)

    def _build_schema(self, db_id: str) -> Schema:
        tables = [
            Table(
                name=tb.name,
                natural_name=tb.natural,
                primary_key=tb.primary_key,
                columns=[
                    Column(cb.name, cb.col_type, natural_name=cb.natural)
                    for cb in tb.columns
                ],
            )
            for tb in self.tables
        ]
        fks = [ForeignKey(*fk) for fk in self.fks]
        return Schema(db_id=db_id, tables=tables, foreign_keys=fks)

    def _build_rows(self, rng: np.random.Generator) -> dict[str, list[tuple]]:
        rows: dict[str, list[tuple]] = {}
        fk_map = {
            (src_t, src_c): dst_t for src_t, src_c, dst_t, _ in self.fks
        }
        for tb in self._topological_tables():
            n = int(rng.integers(tb.rows[0], tb.rows[1] + 1))
            parent_choices = self._parent_pools(tb, fk_map, rows, rng)
            table_rows = []
            for i in range(n):
                record = tuple(
                    self._cell(tb, cb, i, parent_choices, rng)
                    for cb in tb.columns
                )
                table_rows.append(record)
            rows[tb.name.lower()] = table_rows
        return rows

    def _topological_tables(self) -> list[TableBlueprint]:
        """Parents before children so FK pools exist when needed."""
        parents_of: dict[str, list[str]] = {}
        for src_t, _, dst_t, _ in self.fks:
            if src_t != dst_t:
                parents_of.setdefault(src_t, []).append(dst_t)
        ordered: list[TableBlueprint] = []
        seen: set[str] = set()

        def visit(tb: TableBlueprint) -> None:
            """Depth-first parents-before-children ordering."""
            if tb.name in seen:
                return
            seen.add(tb.name)
            for parent in parents_of.get(tb.name, []):
                visit(self.table(parent))
            ordered.append(tb)

        for tb in self.tables:
            visit(tb)
        return ordered

    def _parent_pools(
        self,
        tb: TableBlueprint,
        fk_map: dict,
        rows: dict,
        rng: np.random.Generator,
    ) -> dict[str, list[int]]:
        """For each FK column of ``tb``, the parent keys children may use.

        Roughly a quarter of parents are withheld so that exclusion-style
        queries ("parents without any child") have non-empty answers.
        """
        choices: dict[str, list[int]] = {}
        for cb in tb.columns:
            if cb.role != "fk":
                continue
            parent = fk_map.get((tb.name, cb.name))
            if parent is None:
                continue
            parent_rows = rows.get(parent.lower(), [])
            parent_tb = self.table(parent)
            pk_idx = [c.name for c in parent_tb.columns].index(
                parent_tb.primary_key
            )
            keys = [r[pk_idx] for r in parent_rows]
            if len(keys) >= 4:
                withheld = max(1, len(keys) // 4)
                withheld_keys = set(
                    rng.choice(keys, size=withheld, replace=False).tolist()
                )
                usable = [k for k in keys if k not in withheld_keys]
            else:
                usable = keys
            choices[cb.name] = usable or keys
        return choices

    def _cell(
        self,
        tb: TableBlueprint,
        cb: ColumnBlueprint,
        index: int,
        parent_choices: dict,
        rng: np.random.Generator,
    ):
        if cb.role == "pk":
            return index + 1
        if cb.role == "fk":
            pool = parent_choices.get(cb.name)
            if not pool:
                return None
            return int(rng.choice(pool))
        if cb.role == "name":
            return pools.sample_name(rng)
        if cb.role == "title":
            return pools.sample_title(rng)
        if cb.role == "category":
            pool = cb.pool or pools.COUNTRIES
            # Restrict to a small per-column slice so duplicates are
            # frequent; the slice offset is stable per (table, column).
            width = max(2, min(len(pool), 4))
            offset = stable_hash(tb.name, cb.name) % len(pool)
            idx = (offset + int(rng.integers(0, width))) % len(pool)
            return str(pool[idx])
        if cb.role == "numeric":
            steps = int((cb.high - cb.low) / cb.grid)
            value = cb.low + cb.grid * int(rng.integers(0, max(steps, 1) + 1))
            return int(value) if cb.is_int else round(float(value), 2)
        if cb.role == "year":
            return int(rng.integers(1950, 2021))
        if cb.role == "code":
            return pools.sample_code(rng, prefix=tb.name[:1].upper())
        return f"{tb.name} note {int(rng.integers(1, 100))}"
