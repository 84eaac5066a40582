"""Dialect capability matrix and portability rules (``dlct.*``).

PURPLE's analyzer (PR 4) guards a single SQL surface — SQLite.  This
module makes the legal surface *data*: a declarative
:class:`DialectProfile` per dialect (SQLite, Postgres, MySQL) describing
identifier quoting, row-limit forms, string concatenation, implicit-cast
strictness, reserved words, and function availability.  A family of
``dlct.*`` rules walks a parsed query against a target profile and emits
:class:`~repro.analysis.diagnostics.Diagnostic`\\ s whose ``fix_hint``
names the portable rewrite, so the Postgres profile executor can refuse
statements the target engine would reject and the repair loop can quote
the finding back to the LLM.

Zero false positives on well-formed SQL remains the hard requirement:
every rule only fires when the construct is *certainly* illegal (or
certainly misbehaves) on the target dialect.  Resolution-dependent rules
reuse the sqlcheck scope machinery and stay silent whenever a derived
table or unknown binding makes resolution uncertain.

The renderer's per-dialect knobs (:mod:`repro.sqlkit.render`) and this
matrix describe the same facts; the property suite holds them to each
other (a corpus query rendered for dialect *d* must analyze clean under
target *d*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.diagnostics import Diagnostic, Span
from repro.analysis.sqlcheck import (
    SQLITE_FUNCTIONS,
    SQLAnalyzer,
    _clause_nodes,
    _numeric_text,
    _Scope,
    register_fatal_rules,
)
from repro.obs import runtime as obs
from repro.schema.model import Schema
from repro.sqlkit.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Node,
    Query,
    SelectCore,
    SelectItem,
    Star,
    Subquery,
    SubquerySource,
    TableRef,
    walk,
)
from repro.sqlkit.errors import SQLError
from repro.sqlkit.keywords import KEYWORDS, RESERVED_WORDS
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.tokens import TokenKind, tokenize

#: Characters that open a quoted identifier (or string) in some dialect.
_QUOTE_CHARS = "\"`['"

#: Human-readable names for the quoting styles, keyed by open character.
_QUOTE_STYLE = {'"': "double-quote", "`": "backtick", "[": "bracket"}


@dataclass(frozen=True)
class DialectProfile:
    """The legal surface of one SQL dialect (declarative).

    ``ident_quotes`` lists the identifier-quoting characters the engine
    accepts; ``limit_forms`` the row-limit syntaxes (``"limit"`` for
    ``LIMIT n``, ``"fetch"`` for ``FETCH FIRST n ROWS ONLY``) with
    ``preferred_limit`` being what the renderer emits; ``concat_operator``
    is whether ``||`` concatenates strings (on MySQL it is logical OR);
    ``strict_casts`` is whether comparing across types is an error
    rather than a silent coercion; ``functions`` the scalar/aggregate
    functions the engine provides; ``reserved`` the words that cannot be
    bare identifiers.  ``boolean_idiom`` and ``date_idiom`` are
    documentation-level facts rendered into the capability table.
    """

    name: str
    ident_quotes: frozenset
    preferred_quote: str
    limit_forms: frozenset
    preferred_limit: str
    concat_operator: bool
    strict_casts: bool
    functions: frozenset
    reserved: frozenset
    boolean_idiom: str
    date_idiom: str


SQLITE = DialectProfile(
    name="sqlite",
    ident_quotes=frozenset('"`['),
    preferred_quote='"',
    limit_forms=frozenset({"limit"}),
    preferred_limit="limit",
    concat_operator=True,
    strict_casts=False,
    functions=SQLITE_FUNCTIONS | frozenset({
        "GROUP_CONCAT", "TOTAL", "RANDOM",
    }),
    reserved=RESERVED_WORDS["sqlite"],
    boolean_idiom="integers 0/1",
    date_idiom="STRFTIME('%Y', col)",
)

POSTGRES = DialectProfile(
    name="postgres",
    ident_quotes=frozenset('"'),
    preferred_quote='"',
    limit_forms=frozenset({"limit", "fetch"}),
    preferred_limit="fetch",
    concat_operator=True,
    strict_casts=True,
    functions=frozenset({
        "ABS", "AGE", "CEIL", "CEILING", "CHAR_LENGTH", "COALESCE",
        "CONCAT", "CONCAT_WS", "DATE_PART", "DATE_TRUNC", "EXTRACT",
        "FLOOR", "GREATEST", "INITCAP", "LEAST", "LEFT", "LENGTH",
        "LOWER", "LTRIM", "MD5", "NOW", "NULLIF", "POSITION", "RANDOM",
        "REPEAT", "REPLACE", "REVERSE", "RIGHT", "ROUND", "RTRIM",
        "SIGN", "STRING_AGG", "STRPOS", "SUBSTR", "SUBSTRING",
        "TO_CHAR", "TO_DATE", "TO_NUMBER", "TRIM", "UPPER",
    }),
    reserved=RESERVED_WORDS["postgres"],
    boolean_idiom="TRUE/FALSE literals",
    date_idiom="EXTRACT(YEAR FROM col) / TO_CHAR(col, 'YYYY')",
)

MYSQL = DialectProfile(
    name="mysql",
    ident_quotes=frozenset("`"),
    preferred_quote="`",
    limit_forms=frozenset({"limit"}),
    preferred_limit="limit",
    concat_operator=False,
    strict_casts=False,
    functions=frozenset({
        "ABS", "CEIL", "CEILING", "CHAR_LENGTH", "COALESCE", "CONCAT",
        "CONCAT_WS", "CURDATE", "DATEDIFF", "DATE_FORMAT", "DAY",
        "FLOOR", "FORMAT", "GREATEST", "GROUP_CONCAT", "IFNULL",
        "INSTR", "LEAST", "LEFT", "LENGTH", "LOCATE", "LOWER", "LTRIM",
        "MD5", "MONTH", "NOW", "NULLIF", "RAND", "REPEAT", "REPLACE",
        "REVERSE", "RIGHT", "ROUND", "RTRIM", "SIGN", "STR_TO_DATE",
        "SUBSTR", "SUBSTRING", "TRIM", "UPPER", "YEAR",
    }),
    reserved=RESERVED_WORDS["mysql"],
    boolean_idiom="integers 0/1 (TRUE/FALSE aliases)",
    date_idiom="DATE_FORMAT(col, '%Y') / YEAR(col)",
)

#: dialect name -> profile.
PROFILES = {p.name: p for p in (SQLITE, POSTGRES, MYSQL)}

#: Every function any profiled dialect provides.  A call outside this
#: union is a hallucination (``sql.unknown-function``); a call inside it
#: but missing from the target profile is a *portability* finding
#: (``dlct.function-availability``).
KNOWN_FUNCTIONS = frozenset().union(*(p.functions for p in PROFILES.values()))

#: (function, target dialect) -> the portable rewrite named in fix hints.
FUNCTION_REWRITES = {
    ("IFNULL", "postgres"): "COALESCE(a, b)",
    ("GROUP_CONCAT", "postgres"): "STRING_AGG(expr, ',')",
    ("STRING_AGG", "sqlite"): "GROUP_CONCAT(expr)",
    ("STRING_AGG", "mysql"): "GROUP_CONCAT(expr SEPARATOR ',')",
    ("STRFTIME", "postgres"): "TO_CHAR(col, 'YYYY')",
    ("STRFTIME", "mysql"): "DATE_FORMAT(col, '%Y')",
    ("INSTR", "postgres"): "STRPOS(str, sub)",
    ("IIF", "postgres"): "CASE WHEN cond THEN a ELSE b END",
    ("IIF", "mysql"): "IF(cond, a, b)",
    ("RANDOM", "mysql"): "RAND()",
    ("RAND", "postgres"): "RANDOM()",
    ("RAND", "sqlite"): "RANDOM()",
    ("DATE_FORMAT", "postgres"): "TO_CHAR(col, format)",
    ("DATE_FORMAT", "sqlite"): "STRFTIME(format, col)",
    ("TO_CHAR", "mysql"): "DATE_FORMAT(col, format)",
    ("TO_CHAR", "sqlite"): "STRFTIME(format, col)",
    ("LOCATE", "postgres"): "STRPOS(str, sub)",
    ("JULIANDAY", "postgres"): "EXTRACT(EPOCH FROM col)",
}

#: Rule catalogue: id -> one-line description (rendered by docs and CLI).
DIALECT_RULES = {
    "dlct.limit-form":
        "the row-limit syntax is not portable to the target dialect",
    "dlct.reserved-identifier":
        "a bare identifier is a reserved word on the target dialect",
    "dlct.identifier-quoting":
        "the identifier quoting style is illegal on the target dialect",
    "dlct.string-concat":
        "|| concatenation misbehaves or fails on the target dialect",
    "dlct.function-availability":
        "a function another dialect provides is missing on the target",
    "dlct.implicit-cast":
        "a cross-type comparison the target dialect rejects",
    "dlct.integer-division":
        "integer / integer returns a DECIMAL on the target dialect",
    "dlct.substr-args":
        "SUBSTR argument semantics differ on the target dialect",
    "dlct.string-escape":
        "a backslash in a string literal is an escape on the target",
    "dlct.having-alias":
        "HAVING references a select alias the target dialect rejects",
}

#: dlct rules whose error-severity findings certainly doom execution on
#: the target engine (guard-eligible, mirroring sqlcheck's FATAL_RULES).
DIALECT_FATAL_RULES = frozenset({
    "dlct.limit-form",
    "dlct.reserved-identifier",
    "dlct.identifier-quoting",
    "dlct.string-concat",
    "dlct.function-availability",
    "dlct.implicit-cast",
    "dlct.having-alias",
})

register_fatal_rules(DIALECT_FATAL_RULES)


def get_profile(dialect: str) -> DialectProfile:
    """The profile for ``dialect``; raises ``ValueError`` on unknowns."""
    profile = PROFILES.get(dialect)
    if profile is None:
        raise ValueError(
            f"unknown dialect {dialect!r}; expected one of "
            f"{', '.join(sorted(PROFILES))}"
        )
    return profile


class DialectAnalyzer:
    """Schema-aware analyzer with a dialect-portability layer.

    Runs the base :class:`~repro.analysis.sqlcheck.SQLAnalyzer` and the
    ``dlct.*`` portability rules against one target dialect.  With the
    default ``sqlite`` target this is behaviour-identical to the base
    analyzer on every statement the historical grammar accepted (the
    only sqlite-target dlct finding is the ANSI ``FETCH FIRST`` form,
    which previously failed to parse).
    """

    def __init__(self, schema: Schema, dialect: str = "sqlite"):
        self.schema = schema
        self.dialect = dialect
        self.profile = get_profile(dialect)
        self._base = SQLAnalyzer(schema)

    def analyze(self, sql: str) -> list:
        """All diagnostics for ``sql``: base rules plus ``dlct.*``."""
        base = self._base.analyze(sql)
        try:
            query = parse_sql(sql)
        except SQLError:
            return base
        base = self._adjust_base(base)
        run = _DialectRun(self.profile, self.schema, sql, query)
        dialect_diags = run.check()
        if self.dialect != "sqlite":
            obs.count("analysis.dialect.checked", dialect=self.dialect)
        for diag in dialect_diags:
            obs.count(
                "analysis.dialect.finding",
                dialect=self.dialect, rule=diag.rule,
            )
        return base + dialect_diags

    def _adjust_base(self, diagnostics: list) -> list:
        """Re-read base findings through the target dialect's surface."""
        if self.dialect == "sqlite":
            return diagnostics
        kept = []
        for diag in diagnostics:
            if diag.rule == "sql.unknown-function":
                name = str(diag.fix_hint.get("function", "")).upper()
                if name in self.profile.functions:
                    continue  # the target dialect does provide it
                diag.message = f"no such function on {self.dialect}: {name}"
            if diag.rule == "sql.type-mismatch" and self.profile.strict_casts:
                continue  # superseded by the fatal dlct.implicit-cast
            kept.append(diag)
        return kept


def analyze_dialect(sql: str, schema: Schema, dialect: str) -> list:
    """One-shot convenience over :class:`DialectAnalyzer`."""
    return DialectAnalyzer(schema, dialect=dialect).analyze(sql)


class _DialectRun:
    """State for one dialect check: profile, source text, findings."""

    def __init__(self, profile: DialectProfile, schema: Schema, sql: str,
                 query: Query):
        self.profile = profile
        self.schema = schema
        self.sql = sql
        self.query = query
        self.diagnostics: list = []
        self._seen: set = set()

    def check(self) -> list:
        self._check_token_stream()
        self._check_query(self.query, ())
        return self.diagnostics

    # -- reporting ---------------------------------------------------------

    def report(self, rule: str, message: str, severity: str = "error",
               span: Optional[Span] = None, **fix_hint) -> None:
        if (rule, message) in self._seen:
            return
        self._seen.add((rule, message))
        fix_hint = {"dialect": self.profile.name, **fix_hint}
        self.diagnostics.append(Diagnostic(
            rule=rule, message=message, severity=severity, span=span,
            fix_hint=fix_hint,
        ))

    # -- token-level rules -------------------------------------------------

    def _check_token_stream(self) -> None:
        """Quoting-style and reserved-word checks need raw token text."""
        try:
            tokens = tokenize(self.sql)
        except SQLError:  # pragma: no cover - query already parsed
            return
        reserved = {
            name.lower(): name for name in self._identifier_names()
            if name.upper() in self.profile.reserved
            and name.upper() not in KEYWORDS
        }
        for tok in tokens:
            if tok.kind is not TokenKind.IDENT:
                continue
            quote = self.sql[tok.position]
            if quote in _QUOTE_STYLE:
                if quote not in self.profile.ident_quotes:
                    q = self.profile.preferred_quote
                    self.report(
                        "dlct.identifier-quoting",
                        f"{_QUOTE_STYLE[quote]} identifier quoting is not "
                        f"valid on {self.profile.name}",
                        span=Span(col=tok.position,
                                  length=len(tok.value) + 2),
                        identifier=tok.value,
                        rewrite=f"{q}{tok.value}{q}",
                    )
                continue
            name = reserved.get(tok.value.lower())
            if name is not None:
                q = self.profile.preferred_quote
                self.report(
                    "dlct.reserved-identifier",
                    f"identifier {name!r} is a reserved word on "
                    f"{self.profile.name} and must be quoted",
                    span=Span(col=tok.position, length=len(tok.value)),
                    identifier=name,
                    rewrite=f"{q}{name}{q}",
                )

    def _identifier_names(self) -> set:
        """Every name the query uses as an identifier."""
        names: set = set()
        for node in walk(self.query):
            if isinstance(node, TableRef):
                names.add(node.name)
                if node.alias:
                    names.add(node.alias)
            elif isinstance(node, SubquerySource):
                if node.alias:
                    names.add(node.alias)
            elif isinstance(node, SelectItem):
                if node.alias:
                    names.add(node.alias)
            elif isinstance(node, ColumnRef):
                names.add(node.column)
                if node.table:
                    names.add(node.table)
            elif isinstance(node, Star):
                if node.table:
                    names.add(node.table)
        return names

    # -- query / core traversal --------------------------------------------

    def _check_query(self, query: Query, outer: tuple) -> None:
        for core in query.all_cores():
            self._check_core(core, outer)

    def _check_core(self, core: SelectCore, outer: tuple) -> None:
        bindings: dict = {}
        subqueries: list = []
        if core.from_clause is not None:
            for source in core.from_clause.sources():
                if isinstance(source, TableRef):
                    key = (source.name.lower()
                           if self.schema.has_table(source.name) else None)
                    bindings[source.binding()] = key
                elif isinstance(source, SubquerySource):
                    bindings[source.binding() or "<derived>"] = None
                    subqueries.append(source.query)
        scope = _Scope((bindings,) + outer, self.schema)
        for sub in subqueries:
            self._check_query(sub, ())
        self._check_limit_form(core)
        self._check_having_alias(core, scope)
        for expr in self._core_exprs(core):
            for node in _clause_nodes(expr):
                if isinstance(node, Subquery):
                    self._check_query(node.query, scope.chain)
                elif isinstance(node, BinaryOp):
                    self._check_binary_op(node, scope)
                elif isinstance(node, FuncCall):
                    self._check_function(node)
                elif isinstance(node, Comparison):
                    self._check_comparison(node, scope)
                elif isinstance(node, Literal):
                    self._check_string_literal(node)

    def _core_exprs(self, core: SelectCore):
        for item in core.items:
            yield item.expr
        if core.from_clause is not None:
            for join in core.from_clause.joins:
                if join.on is not None:
                    yield join.on
        if core.where is not None:
            yield core.where
        for expr in core.group_by:
            yield expr
        if core.having is not None:
            yield core.having
        for item in core.order_by:
            yield item.expr

    # -- per-construct rules -----------------------------------------------

    def _check_limit_form(self, core: SelectCore) -> None:
        if core.limit is None:
            return
        form = core.limit_form
        if form not in self.profile.limit_forms:
            self.report(
                "dlct.limit-form",
                f"FETCH FIRST ... ROWS ONLY is not supported on "
                f"{self.profile.name}",
                rewrite=f"LIMIT {core.limit}",
            )
        elif form != self.profile.preferred_limit:
            self.report(
                "dlct.limit-form",
                f"LIMIT is a {self.profile.name} extension; the portable "
                f"ANSI form is FETCH FIRST n ROWS ONLY",
                severity="warning",
                rewrite=f"FETCH FIRST {core.limit} ROWS ONLY",
            )

    def _check_having_alias(self, core: SelectCore, scope: _Scope) -> None:
        if core.having is None or not self.profile.strict_casts:
            return
        aliases = {
            item.alias.lower(): item.alias
            for item in core.items if item.alias
        }
        if not aliases:
            return
        for node in _clause_nodes(core.having):
            if not isinstance(node, ColumnRef) or node.table:
                continue
            alias = aliases.get(node.column.lower())
            if alias is None:
                continue
            if scope.has_opaque():
                continue  # might be a real column of an opaque source
            if any(scope.holders(b, node.column) for b in scope.chain):
                continue  # resolves as a real column everywhere
            self.report(
                "dlct.having-alias",
                f"HAVING references select alias {alias!r}, which "
                f"{self.profile.name} does not allow",
                rewrite="repeat the aliased expression inside HAVING",
                identifier=alias,
            )

    def _check_binary_op(self, op: BinaryOp, scope: _Scope) -> None:
        if op.op == "||":
            if not self.profile.concat_operator:
                self.report(
                    "dlct.string-concat",
                    f"|| is logical OR on {self.profile.name}, not string "
                    f"concatenation",
                    rewrite="CONCAT(a, b)",
                )
            elif (self.profile.strict_casts
                  and self._numeric_operand(op.left, scope)
                  and self._numeric_operand(op.right, scope)):
                self.report(
                    "dlct.string-concat",
                    f"operator does not exist on {self.profile.name}: "
                    f"integer || integer",
                    rewrite="cast the operands to text or use CONCAT(a, b)",
                )
        elif op.op == "/" and self.profile.name == "mysql":
            if (self._integer_operand(op.left, scope)
                    and self._integer_operand(op.right, scope)):
                self.report(
                    "dlct.integer-division",
                    "integer / integer returns a DECIMAL on mysql, not a "
                    "truncated integer",
                    severity="warning",
                    rewrite="use the DIV operator for integer division",
                )

    def _check_function(self, call: FuncCall) -> None:
        name = call.name.upper()
        if (self.profile.name != "sqlite"
                and name in KNOWN_FUNCTIONS
                and name not in self.profile.functions):
            rewrite = FUNCTION_REWRITES.get((name, self.profile.name))
            self.report(
                "dlct.function-availability",
                f"function {name} does not exist on {self.profile.name}",
                rewrite=rewrite or "use a function the target provides",
                function=name,
                error_class="function_hallucination",
            )
        if (self.profile.strict_casts
                and name in ("SUBSTR", "SUBSTRING")
                and len(call.args) >= 2):
            start = call.args[1]
            if (isinstance(start, Literal) and start.kind == "number"
                    and isinstance(start.value, (int, float))
                    and start.value < 0):
                self.report(
                    "dlct.substr-args",
                    f"{name} with a negative start counts from the end on "
                    f"sqlite but not on {self.profile.name}",
                    severity="warning",
                    rewrite="compute the start from LENGTH(str) instead",
                )

    def _check_comparison(self, cmp: Comparison, scope: _Scope) -> None:
        if not self.profile.strict_casts:
            return
        for column_side, other in ((cmp.left, cmp.right),
                                   (cmp.right, cmp.left)):
            if not isinstance(column_side, ColumnRef):
                continue
            if not isinstance(other, Literal):
                continue
            resolved = scope.resolve(column_side)
            if resolved is None:
                continue
            if (resolved.col_type in ("integer", "real")
                    and other.kind == "string"
                    and not _numeric_text(other.value)):
                self.report(
                    "dlct.implicit-cast",
                    f"invalid input syntax on {self.profile.name}: "
                    f"{resolved.col_type} column {column_side.column!r} "
                    f"compared with non-numeric string {other.value!r}",
                    column=column_side.column,
                    rewrite="compare against a numeric literal",
                )
            elif (resolved.col_type == "text"
                  and other.kind == "number"):
                self.report(
                    "dlct.implicit-cast",
                    f"operator does not exist on {self.profile.name}: "
                    f"text {cmp.op} numeric (column "
                    f"{column_side.column!r})",
                    column=column_side.column,
                    rewrite=f"quote the literal: '{other.value}'",
                )

    def _check_string_literal(self, lit: Literal) -> None:
        if self.profile.name != "mysql" or lit.kind != "string":
            return
        if isinstance(lit.value, str) and "\\" in lit.value:
            self.report(
                "dlct.string-escape",
                "backslash is an escape character in mysql string "
                "literals",
                severity="warning",
                rewrite="double the backslash (\\\\) or use "
                        "NO_BACKSLASH_ESCAPES",
            )

    # -- operand typing helpers ---------------------------------------------

    def _numeric_operand(self, node: Node, scope: _Scope) -> bool:
        if isinstance(node, Literal):
            return node.kind == "number"
        if isinstance(node, ColumnRef):
            resolved = scope.resolve(node)
            return (resolved is not None
                    and resolved.col_type in ("integer", "real"))
        if isinstance(node, BinaryOp) and node.op == "||":
            return False
        return False

    def _integer_operand(self, node: Node, scope: _Scope) -> bool:
        if isinstance(node, Literal):
            return node.kind == "number" and isinstance(node.value, int)
        if isinstance(node, ColumnRef):
            resolved = scope.resolve(node)
            return resolved is not None and resolved.col_type == "integer"
        return False
