"""Keyword and operator tables for the Spider SQL subset.

The structure-level mapping rules (``<AGG>``, ``<CMP>``, ``<IUE>``, ``<OP>``)
come straight from Figure 7 of the paper.
"""

from __future__ import annotations

# Reserved words recognized by the tokenizer (upper-case canonical form).
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "AS",
        "JOIN",
        "ON",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "LIMIT",
        "ASC",
        "DESC",
        "AND",
        "OR",
        "NOT",
        "IN",
        "LIKE",
        "BETWEEN",
        "INTERSECT",
        "UNION",
        "EXCEPT",
        "COUNT",
        "MAX",
        "MIN",
        "SUM",
        "AVG",
        "IS",
        "NULL",
        "LEFT",
        "OUTER",
        "INNER",
        "CONCAT",
        "FETCH",
        "FIRST",
        "ROWS",
        "ONLY",
    }
)

# Aggregation function names (Figure 7: <AGG>).
AGG_FUNCS = ("COUNT", "MAX", "MIN", "SUM", "AVG")

# Comparison operators (Figure 7: <CMP>).  Multi-word operators are stored
# space-joined in their canonical form.
CMP_OPS = (
    "<",
    "<=",
    ">",
    ">=",
    "=",
    "!=",
    "BETWEEN",
    "NOT LIKE",
    "LIKE",
    "NOT IN",
    "IN",
)

# Set operators (Figure 7: <IUE>).
IUE_OPS = ("INTERSECT", "UNION", "EXCEPT")

# Arithmetic operators (Figure 7: <OP>).
ARITH_OPS = ("+", "-", "*", "/", "||")

# Clause-introducing keywords kept at the Clause-Level abstraction (§IV-C1).
# Multi-word clauses are canonicalized to single tokens.
CLAUSE_KEYWORDS = (
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP BY",
    "HAVING",
    "ORDER BY",
    "LIMIT",
)

# Structure-level token classes (Figure 7).
STRUCTURE_CLASSES = {
    **{op: "<CMP>" for op in CMP_OPS},
    **{op: "<IUE>" for op in IUE_OPS},
    **{op: "<OP>" for op in ARITH_OPS},
    **{fn: "<AGG>" for fn in AGG_FUNCS},
}


def structure_class(token: str) -> str:
    """Map a keywords-level token to its structure-level class.

    Tokens without a Figure-7 class map to themselves.
    """
    return STRUCTURE_CLASSES.get(token.upper(), token.upper())
