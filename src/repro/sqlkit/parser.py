"""Recursive-descent parser for the Spider SQL subset.

``parse_sql`` turns an SQL string into the AST of :mod:`repro.sqlkit.ast_nodes`.
The grammar intentionally mirrors what Spider's gold queries use, plus the
slightly-malformed constructs LLMs emit (e.g. ``CONCAT(...)`` calls and
multi-argument aggregates) so that the database-adaption module can parse
buggy SQL before repairing it.
"""

from __future__ import annotations

from typing import Optional

from repro.sqlkit.ast_nodes import (
    Agg,
    BetweenExpr,
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    FromClause,
    FuncCall,
    InExpr,
    IsNullExpr,
    JoinedTable,
    LikeExpr,
    Literal,
    Node,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    Star,
    Subquery,
    SubquerySource,
    TableRef,
    ValueList,
)
from repro.sqlkit.errors import SQLParseError
from repro.sqlkit.keywords import AGG_FUNCS, IUE_OPS
from repro.sqlkit.tokens import Token, TokenKind, tokenize

_CMP_OPS = {"<", "<=", ">", ">=", "=", "!="}
_ARITH_ADD = {"+", "-", "||"}
_ARITH_MUL = {"*", "/"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token-stream helpers ------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[Token]:
        """The token at the given lookahead offset, or None."""
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at_keyword(self, *names: str) -> bool:
        """Whether the current token is one of the given keywords."""
        tok = self.peek()
        return tok is not None and tok.is_keyword(*names)

    def at_punct(self, value: str) -> bool:
        """Whether the current token is this punctuation mark."""
        tok = self.peek()
        return tok is not None and tok.kind is TokenKind.PUNCT and tok.value == value

    def advance(self) -> Token:
        """Consume and return the current token."""
        tok = self.peek()
        if tok is None:
            raise SQLParseError("unexpected end of input", self.pos)
        self.pos += 1
        return tok

    def expect_keyword(self, *names: str) -> Token:
        """Consume a required keyword or raise SQLParseError."""
        tok = self.peek()
        if tok is None or not tok.is_keyword(*names):
            raise SQLParseError(
                f"expected {'/'.join(names)}, found {tok.value if tok else 'EOF'}",
                self.pos,
            )
        return self.advance()

    def expect_punct(self, value: str) -> Token:
        """Consume required punctuation or raise SQLParseError."""
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.PUNCT or tok.value != value:
            raise SQLParseError(
                f"expected {value!r}, found {tok.value if tok else 'EOF'}", self.pos
            )
        return self.advance()

    def accept_keyword(self, *names: str) -> bool:
        """Consume the keyword if present; report whether it was."""
        if self.at_keyword(*names):
            self.advance()
            return True
        return False

    # -- grammar -------------------------------------------------------------

    def parse_query(self) -> Query:
        """query := select_core (IUE select_core)*"""
        core = self.parse_select_core()
        compounds: list[tuple] = []
        while self.at_keyword(*IUE_OPS):
            op = self.advance().value
            rhs = self.parse_select_core()
            compounds.append((op, rhs))
        return Query(core=core, compounds=compounds)

    def parse_select_core(self) -> SelectCore:
        """One SELECT block with all optional clauses."""
        self.expect_keyword("SELECT")
        core = SelectCore()
        core.distinct = self.accept_keyword("DISTINCT")
        core.items = [self.parse_select_item()]
        while self.at_punct(","):
            self.advance()
            core.items.append(self.parse_select_item())
        if self.accept_keyword("FROM"):
            core.from_clause = self.parse_from_clause()
        if self.accept_keyword("WHERE"):
            core.where = self.parse_condition()
        if self.at_keyword("GROUP"):
            self.advance()
            self.expect_keyword("BY")
            core.group_by = [self.parse_value_expr()]
            while self.at_punct(","):
                self.advance()
                core.group_by.append(self.parse_value_expr())
        if self.accept_keyword("HAVING"):
            core.having = self.parse_condition()
        if self.at_keyword("ORDER"):
            self.advance()
            self.expect_keyword("BY")
            core.order_by = [self.parse_order_item()]
            while self.at_punct(","):
                self.advance()
                core.order_by.append(self.parse_order_item())
        if self.accept_keyword("LIMIT"):
            tok = self.advance()
            if tok.kind is not TokenKind.NUMBER:
                raise SQLParseError("LIMIT requires a number", self.pos - 1)
            core.limit = int(float(tok.value))
        elif self.at_keyword("FETCH"):
            # ANSI row limiting: FETCH FIRST <n> ROWS ONLY.
            self.advance()
            self.expect_keyword("FIRST")
            tok = self.advance()
            if tok.kind is not TokenKind.NUMBER:
                raise SQLParseError(
                    "FETCH FIRST requires a number", self.pos - 1
                )
            core.limit = int(float(tok.value))
            self.expect_keyword("ROWS")
            self.expect_keyword("ONLY")
        return core

    def parse_select_item(self) -> SelectItem:
        """One projection, with an optional alias."""
        expr = self.parse_value_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self._expect_name()
        elif (tok := self.peek()) is not None and tok.kind is TokenKind.IDENT:
            # Bare alias (``SELECT count(*) n``) — rare but LLMs emit it.
            alias = self.advance().value
        return SelectItem(expr=expr, alias=alias)

    def parse_order_item(self) -> OrderItem:
        """One ORDER BY key with its direction."""
        expr = self.parse_value_expr()
        direction = "ASC"
        if self.at_keyword("ASC", "DESC"):
            direction = self.advance().value
        return OrderItem(expr=expr, direction=direction)

    # -- FROM ----------------------------------------------------------------

    def parse_from_clause(self) -> FromClause:
        """FROM with any number of (LEFT/INNER) JOINs."""
        first = self.parse_table_source()
        clause = FromClause(first=first)
        while True:
            kind = None
            if self.at_keyword("JOIN", "INNER"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                kind = "JOIN"
            elif self.at_keyword("LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                kind = "LEFT JOIN"
            elif self.at_punct(","):
                # Comma join (implicit cross join) — normalize to JOIN.
                self.advance()
                kind = "JOIN"
            else:
                break
            source = self.parse_table_source()
            on = None
            if self.accept_keyword("ON"):
                on = self.parse_condition()
            clause.joins.append(JoinedTable(source=source, on=on, kind=kind))
        return clause

    def parse_table_source(self) -> Node:
        """A base table or parenthesized derived table."""
        if self.at_punct("("):
            self.advance()
            query = self.parse_query()
            self.expect_punct(")")
            alias = None
            if self.accept_keyword("AS"):
                alias = self._expect_name()
            elif (tok := self.peek()) is not None and tok.kind is TokenKind.IDENT:
                alias = self.advance().value
            return SubquerySource(query=query, alias=alias)
        name = self._expect_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self._expect_name()
        elif (tok := self.peek()) is not None and tok.kind is TokenKind.IDENT:
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    # -- conditions ------------------------------------------------------------

    def parse_condition(self) -> Node:
        """Boolean condition with AND/OR precedence."""
        return self._parse_or()

    def _parse_or(self) -> Node:
        terms = [self._parse_and()]
        while self.at_keyword("OR"):
            self.advance()
            terms.append(self._parse_and())
        return terms[0] if len(terms) == 1 else BoolOp(op="OR", terms=terms)

    def _parse_and(self) -> Node:
        terms = [self._parse_predicate()]
        while self.at_keyword("AND"):
            self.advance()
            terms.append(self._parse_predicate())
        return terms[0] if len(terms) == 1 else BoolOp(op="AND", terms=terms)

    def _parse_predicate(self) -> Node:
        if self.accept_keyword("NOT"):
            inner = self._parse_predicate()
            return _negate(inner)
        if self.at_punct("("):
            # Either a grouped condition or a parenthesized subquery used in
            # a comparison; disambiguate by looking for SELECT.
            nxt = self.peek(1)
            if nxt is not None and nxt.is_keyword("SELECT"):
                left: Node = self._parse_primary()
            else:
                self.advance()
                cond = self.parse_condition()
                self.expect_punct(")")
                return cond
        else:
            left = self.parse_value_expr()
        return self._parse_predicate_tail(left)

    def _parse_predicate_tail(self, left: Node) -> Node:
        tok = self.peek()
        if tok is None:
            raise SQLParseError("condition missing operator", self.pos)
        if tok.kind is TokenKind.OP and tok.value in _CMP_OPS:
            op = self.advance().value
            right = self.parse_value_expr()
            return Comparison(op=op, left=left, right=right)
        negated = False
        if tok.is_keyword("NOT"):
            negated = True
            self.advance()
            tok = self.peek()
            if tok is None:
                raise SQLParseError("NOT missing predicate", self.pos)
        if tok.is_keyword("IN"):
            self.advance()
            self.expect_punct("(")
            if self.at_keyword("SELECT"):
                source: Node = Subquery(query=self.parse_query())
            else:
                values = [self._parse_literal_or_expr()]
                while self.at_punct(","):
                    self.advance()
                    values.append(self._parse_literal_or_expr())
                source = ValueList(values=values)
            self.expect_punct(")")
            return InExpr(left=left, source=source, negated=negated)
        if tok.is_keyword("LIKE"):
            self.advance()
            pattern = self.parse_value_expr()
            return LikeExpr(left=left, pattern=pattern, negated=negated)
        if tok.is_keyword("BETWEEN"):
            self.advance()
            low = self.parse_value_expr()
            self.expect_keyword("AND")
            high = self.parse_value_expr()
            return BetweenExpr(left=left, low=low, high=high, negated=negated)
        if tok.is_keyword("IS"):
            self.advance()
            neg = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNullExpr(left=left, negated=neg or negated)
        raise SQLParseError(f"unexpected token {tok.value!r} in condition", self.pos)

    def _parse_literal_or_expr(self) -> Node:
        return self.parse_value_expr()

    # -- value expressions -----------------------------------------------------

    def parse_value_expr(self) -> Node:
        """Value expression with arithmetic precedence."""
        return self._parse_additive()

    def _parse_additive(self) -> Node:
        left = self._parse_multiplicative()
        while (tok := self.peek()) is not None and tok.kind is TokenKind.OP and tok.value in _ARITH_ADD:
            op = self.advance().value
            right = self._parse_multiplicative()
            left = BinaryOp(op=op, left=left, right=right)
        return left

    def _parse_multiplicative(self) -> Node:
        left = self._parse_primary()
        while (tok := self.peek()) is not None and tok.kind is TokenKind.OP and tok.value in _ARITH_MUL:
            # ``*`` directly after "SELECT" or "(" was consumed as Star by
            # _parse_primary, so reaching here really is multiplication.
            op = self.advance().value
            right = self._parse_primary()
            left = BinaryOp(op=op, left=left, right=right)
        return left

    def _parse_primary(self) -> Node:
        tok = self.peek()
        if tok is None:
            raise SQLParseError("unexpected end of expression", self.pos)
        if tok.kind is TokenKind.OP and tok.value == "*":
            self.advance()
            return Star()
        if tok.kind is TokenKind.OP and tok.value == "-":
            # Unary minus: negate the following primary.
            self.advance()
            inner = self._parse_primary()
            if isinstance(inner, Literal) and inner.kind == "number":
                return Literal.number(-inner.value)
            return BinaryOp(op="-", left=Literal.number(0), right=inner)
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            text = tok.value
            value = float(text) if "." in text else int(text)
            return Literal.number(value)
        if tok.kind is TokenKind.STRING:
            self.advance()
            return Literal.string(tok.value)
        if tok.is_keyword("NULL"):
            self.advance()
            return Literal(None, "null")
        if tok.is_keyword(*AGG_FUNCS):
            return self._parse_call(is_agg=True)
        if tok.is_keyword("CONCAT"):
            return self._parse_call(is_agg=False)
        if self.at_punct("("):
            nxt = self.peek(1)
            if nxt is not None and nxt.is_keyword("SELECT"):
                self.advance()
                query = self.parse_query()
                self.expect_punct(")")
                return Subquery(query=query)
            self.advance()
            expr = self.parse_value_expr()
            self.expect_punct(")")
            return expr
        if tok.kind is TokenKind.IDENT:
            nxt = self.peek(1)
            if nxt is not None and nxt.kind is TokenKind.PUNCT and nxt.value == "(":
                return self._parse_call(is_agg=False)
            return self._parse_column_ref()
        if tok.is_keyword("FETCH", "FIRST", "ROWS", "ONLY"):
            # The ANSI row-limiting words are keywords only inside the
            # FETCH clause (handled at clause level); in expression
            # position they are ordinary column names (``WHERE rows <
            # 0`` predates the FETCH FIRST support).
            return self._parse_column_ref()
        raise SQLParseError(f"unexpected token {tok.value!r} in expression", self.pos)

    def _parse_call(self, is_agg: bool) -> Node:
        name = self.advance().value
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        args: list[Node] = []
        if not self.at_punct(")"):
            args.append(self.parse_value_expr())
            while self.at_punct(","):
                self.advance()
                args.append(self.parse_value_expr())
        self.expect_punct(")")
        if is_agg:
            return Agg(func=name.upper(), args=args, distinct=distinct)
        return FuncCall(name=name.upper(), args=args)

    def _parse_column_ref(self) -> Node:
        first = self._expect_name()
        if self.at_punct("."):
            self.advance()
            tok = self.peek()
            if tok is not None and tok.kind is TokenKind.OP and tok.value == "*":
                self.advance()
                return Star(table=first)
            column = self._expect_name()
            return ColumnRef(column=column, table=first)
        return ColumnRef(column=first)

    def _expect_name(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SQLParseError("expected identifier, found EOF", self.pos)
        if tok.kind is TokenKind.IDENT:
            return self.advance().value
        # Keywords used as identifiers (columns named "year", "count", ...)
        # are tolerated when a name is required.
        if tok.kind is TokenKind.KEYWORD:
            return self.advance().value
        raise SQLParseError(f"expected identifier, found {tok.value!r}", self.pos)


def _negate(node: Node) -> Node:
    """Push a leading NOT into the predicate node."""
    if isinstance(node, (InExpr, LikeExpr, BetweenExpr, IsNullExpr)):
        node.negated = not node.negated
        return node
    if isinstance(node, Comparison):
        flip = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
        node.op = flip[node.op]
        return node
    raise SQLParseError("NOT applied to unsupported predicate")


def parse_sql(sql: str) -> Query:
    """Parse an SQL string into a :class:`Query` AST.

    Raises :class:`SQLParseError` / :class:`SQLTokenizeError` on malformed
    input.  Trailing semicolons are permitted.
    """
    tokens = [t for t in tokenize(sql) if not (t.kind is TokenKind.PUNCT and t.value == ";")]
    parser = _Parser(tokens)
    query = parser.parse_query()
    if parser.pos != len(tokens):
        leftover = tokens[parser.pos]
        raise SQLParseError(f"unparsed trailing input {leftover.value!r}", parser.pos)
    return query
