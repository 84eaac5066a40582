"""Typed AST for the Spider SQL subset.

The node set covers everything the Spider family of benchmarks uses:
single-table and multi-join SELECT cores, WHERE/GROUP BY/HAVING/ORDER
BY/LIMIT clauses, aggregations with DISTINCT, arithmetic, (NOT) IN /
LIKE / BETWEEN predicates, scalar and IN-subqueries, FROM-subqueries, and
INTERSECT / UNION / EXCEPT compounds.

All nodes are plain dataclasses.  Mutation is allowed (the database-adaption
module rewrites trees in place via :func:`clone`), but shared helpers such as
``walk`` treat the tree as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union


class Node:
    """Base class for all AST nodes (marker only)."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes in source order."""
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item


#: Each node class's dataclass field names, in declaration order.
_FIELD_NAMES: dict = {}


def _field_names(cls: type) -> tuple:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def clone(node: Node) -> Node:
    """Deep-copy an AST subtree.

    A structural copy: every node, list and tuple is new, and leaves
    (strings, numbers, booleans, None) are shared, being immutable.  A
    node reachable twice is copied once, as :func:`copy.deepcopy` does.
    """
    return _copy(node, {})


def _copy(value, memo: dict):
    if isinstance(value, Node):
        copied = memo.get(id(value))
        if copied is None:
            copied = memo[id(value)] = object.__new__(type(value))
            for name, item in value.__dict__.items():
                copied.__dict__[name] = _copy(item, memo)
        return copied
    if isinstance(value, list):
        return [_copy(item, memo) for item in value]
    if isinstance(value, tuple):
        return tuple(_copy(item, memo) for item in value)
    return value


# --------------------------------------------------------------------------
# Value expressions
# --------------------------------------------------------------------------


@dataclass
class Literal(Node):
    """A constant: ``kind`` is one of ``"string"``, ``"number"``, ``"null"``."""

    value: Union[str, int, float, None]
    kind: str = "string"

    @staticmethod
    def number(value: Union[int, float]) -> "Literal":
        """Numeric literal constructor."""
        return Literal(value, "number")

    @staticmethod
    def string(value: str) -> "Literal":
        """String literal constructor."""
        return Literal(value, "string")


@dataclass
class ColumnRef(Node):
    """A (possibly qualified) column reference like ``T1.country``."""

    column: str
    table: Optional[str] = None

    def key(self) -> str:
        """Case-insensitive comparison key."""
        t = (self.table or "").lower()
        return f"{t}.{self.column.lower()}" if t else self.column.lower()


@dataclass
class Star(Node):
    """``*`` or ``T1.*``."""

    table: Optional[str] = None


@dataclass
class Agg(Node):
    """An aggregation call, e.g. ``COUNT(DISTINCT T1.name)``.

    ``args`` has one element for well-formed SQL; the
    aggregation-hallucination error class produces multiple elements, which
    the adaption module splits.
    """

    func: str
    args: list[Node] = field(default_factory=list)
    distinct: bool = False


@dataclass
class FuncCall(Node):
    """A non-aggregate function call (e.g. the hallucinated ``CONCAT``)."""

    name: str
    args: list[Node] = field(default_factory=list)


@dataclass
class BinaryOp(Node):
    """Arithmetic expression ``left op right`` with op in ``+ - * /``."""

    op: str
    left: Node = None  # type: ignore[assignment]
    right: Node = None  # type: ignore[assignment]


@dataclass
class Subquery(Node):
    """A parenthesized query used as a value or IN-source."""

    query: "Query" = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Conditions
# --------------------------------------------------------------------------


@dataclass
class Comparison(Node):
    """``left op right`` with op in ``< <= > >= = !=``."""

    op: str
    left: Node = None  # type: ignore[assignment]
    right: Node = None  # type: ignore[assignment]


@dataclass
class InExpr(Node):
    """``left [NOT] IN (subquery | value list)``."""

    left: Node = None  # type: ignore[assignment]
    source: Node = None  # type: ignore[assignment]  # Subquery or ValueList
    negated: bool = False


@dataclass
class ValueList(Node):
    """A literal tuple for IN-lists: ``(1, 2, 3)``."""

    values: list[Node] = field(default_factory=list)


@dataclass
class LikeExpr(Node):
    """``left [NOT] LIKE pattern``."""

    left: Node = None  # type: ignore[assignment]
    pattern: Node = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class BetweenExpr(Node):
    """``left BETWEEN low AND high``."""

    left: Node = None  # type: ignore[assignment]
    low: Node = None  # type: ignore[assignment]
    high: Node = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class IsNullExpr(Node):
    """``left IS [NOT] NULL``."""

    left: Node = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class BoolOp(Node):
    """N-ary AND/OR.  ``terms`` preserves source order."""

    op: str  # "AND" | "OR"
    terms: list[Node] = field(default_factory=list)


# --------------------------------------------------------------------------
# FROM clause
# --------------------------------------------------------------------------


@dataclass
class TableRef(Node):
    """A base-table source, e.g. ``tv_channel AS T1``."""

    name: str
    alias: Optional[str] = None

    def binding(self) -> str:
        """The name this source is referred to by (alias if present)."""
        return (self.alias or self.name).lower()


@dataclass
class SubquerySource(Node):
    """A derived-table source: ``(SELECT ...) AS alias``."""

    query: "Query" = None  # type: ignore[assignment]
    alias: Optional[str] = None

    def binding(self) -> str:
        """The name this source is referred to by."""
        return (self.alias or "").lower()


@dataclass
class JoinedTable(Node):
    """One ``JOIN source ON condition`` step (``on`` may be absent)."""

    source: Node = None  # type: ignore[assignment]  # TableRef|SubquerySource
    on: Optional[Node] = None
    kind: str = "JOIN"  # "JOIN" | "LEFT JOIN"


@dataclass
class FromClause(Node):
    """``FROM first JOIN ... JOIN ...``."""

    first: Node = None  # type: ignore[assignment]  # TableRef|SubquerySource
    joins: list[JoinedTable] = field(default_factory=list)

    def sources(self) -> list[Node]:
        """All table sources in order (first, then each join's source)."""
        return [self.first] + [j.source for j in self.joins]


# --------------------------------------------------------------------------
# SELECT core and full query
# --------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One projection, optionally aliased (``expr AS alias``)."""

    expr: Node = None  # type: ignore[assignment]
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    """One ORDER BY key with direction (``"ASC"`` or ``"DESC"``)."""

    expr: Node = None  # type: ignore[assignment]
    direction: str = "ASC"


@dataclass
class SelectCore(Node):
    """A single SELECT block without set operators.

    ``limit_form`` records which row-limit surface syntax the source
    used: ``"limit"`` for ``LIMIT n`` (SQLite/MySQL/Postgres extension)
    or ``"fetch"`` for the ANSI ``FETCH FIRST n ROWS ONLY``.  Both set
    ``limit``; the renderer picks the target dialect's form regardless.
    """

    items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_clause: Optional[FromClause] = None
    where: Optional[Node] = None
    group_by: list[Node] = field(default_factory=list)
    having: Optional[Node] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    limit_form: str = "limit"


@dataclass
class Query(Node):
    """A full query: a SELECT core plus zero or more IUE compounds.

    ``SELECT a FROM t EXCEPT SELECT b FROM u`` is represented as
    ``Query(core=<a>, compounds=[("EXCEPT", <b>)])``.
    """

    core: SelectCore = None  # type: ignore[assignment]
    compounds: list[tuple] = field(default_factory=list)  # (op, SelectCore|Query)

    def children(self) -> Iterator[Node]:
        """Yield direct child nodes in source order."""
        if self.core is not None:
            yield self.core
        for _, rhs in self.compounds:
            if isinstance(rhs, Node):
                yield rhs

    def all_cores(self) -> list[SelectCore]:
        """All SELECT cores in this query, left to right (not descending
        into subqueries)."""
        cores = [self.core]
        for _, rhs in self.compounds:
            if isinstance(rhs, Query):
                cores.extend(rhs.all_cores())
            else:
                cores.append(rhs)
        return cores
