"""Recursive-descent parser for the SPJGA SQL dialect.

The dialect covers the query class A-Store supports (Section 3 of the
paper): SELECT with aggregates and arithmetic, a FROM list (joins are
expressed as WHERE equality predicates, star-schema style), WHERE with
AND/OR/NOT, BETWEEN, IN, LIKE, GROUP BY, ORDER BY, and LIMIT.

A statement's *shape* (:func:`statement_shape`) is its token stream with
the WHERE clause's literals lifted out; the parser numbers the same
literals, so a plan compiled for one text of a shape can take another
text's literals (:func:`repro.plan.optimizer.rebind`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import ParseError
from .ast import (
    AGGREGATE_FUNCTIONS,
    Aggregate,
    And,
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    OrderItem,
    SelectItem,
    SelectStatement,
)
from .tokenizer import Token, TokenType, lex, tokenize


def parse(sql: str) -> SelectStatement:
    """Parse *sql* into a :class:`SelectStatement`.

    Raises :class:`~repro.errors.ParseError` with the offending source
    position on malformed input.
    """
    return _Parser(tokenize(sql)).parse_select()


#: Keywords that end a WHERE clause.
_WHERE_END = frozenset(("GROUP", "ORDER", "LIMIT"))


def statement_shape(sql: str) -> Tuple[str, Tuple[object, ...]]:
    """The shape of *sql* and the values of its WHERE literals.

    The shape is the token stream with every literal of the WHERE clause
    replaced by its type (``?int``, ``?float`` or ``?str``), keywords and
    identifiers case-folded as the parser folds them; whitespace and
    comments are gone.  Literals elsewhere (SELECT, GROUP BY, ORDER BY,
    LIMIT) stay in the shape, and so does each IN list's length.  The
    values come in token order, which is the order :func:`parse` numbers
    the same literals in (their ``slot``): two texts of one shape parse
    to one statement up to the values in those slots.
    """
    parts = []
    values = []
    where = False
    for kind, text, _ in lex(sql):
        if kind is TokenType.KEYWORD:
            if text == "WHERE":
                where = True
            elif text in _WHERE_END:
                where = False
        elif kind is TokenType.IDENT:
            text = text.lower()
        elif kind is TokenType.STRING or kind is TokenType.NUMBER:
            value = text if kind is TokenType.STRING else _number(text)
            if where:
                values.append(value)
                text = "?" + type(value).__name__
            else:
                text = repr(value)
        parts.append(text)
    return " ".join(parts), tuple(values)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        #: the next WHERE literal's slot (``None`` outside the WHERE clause)
        self._slot: Optional[int] = None

    # -- token plumbing ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.type != TokenType.EOF:
            self._pos += 1
        return token

    def _expect_keyword(self, name: str) -> Token:
        if not self._current.is_keyword(name):
            raise ParseError(
                f"expected {name}, found {self._current.value!r}",
                self._current.position,
            )
        return self._advance()

    def _expect(self, ttype: TokenType) -> Token:
        if self._current.type != ttype:
            raise ParseError(
                f"expected {ttype.value}, found {self._current.value!r}",
                self._current.position,
            )
        return self._advance()

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    def _next_slot(self) -> Optional[int]:
        """The slot of the literal token just consumed (see
        :func:`statement_shape`): every NUMBER or STRING token of the
        WHERE clause takes the next one."""
        slot = self._slot
        if slot is not None:
            self._slot = slot + 1
        return slot

    # -- grammar ------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        items = [self._select_item()]
        while self._current.type == TokenType.COMMA:
            self._advance()
            items.append(self._select_item())

        self._expect_keyword("FROM")
        tables = [self._expect(TokenType.IDENT).value.lower()]
        while self._current.type == TokenType.COMMA:
            self._advance()
            tables.append(self._expect(TokenType.IDENT).value.lower())

        where = None
        if self._accept_keyword("WHERE"):
            self._slot = 0
            where = self._or_expr()
            self._slot = None

        group_by: list[ColumnRef] = []
        order_by: list[OrderItem] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column_ref())
            while self._current.type == TokenType.COMMA:
                self._advance()
                group_by.append(self._column_ref())
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._current.type == TokenType.COMMA:
                self._advance()
                order_by.append(self._order_item())
        limit = None
        if self._accept_keyword("LIMIT"):
            limit = int(self._expect(TokenType.NUMBER).value)
        if self._current.type != TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {self._current.value!r}",
                self._current.position,
            )
        return SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            limit=limit,
        )

    def _select_item(self) -> SelectItem:
        expr = self._additive()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENT).value.lower()
        elif self._current.type == TokenType.IDENT and not self._current.is_keyword():
            # bare alias: "sum(x) revenue"
            alias = self._advance().value.lower()
        return SelectItem(expr=expr, alias=alias)

    def _order_item(self) -> OrderItem:
        expr = self._additive()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return OrderItem(expr=expr, descending=descending)

    def _column_ref(self) -> ColumnRef:
        first = self._expect(TokenType.IDENT).value
        if self._current.type == TokenType.DOT:
            self._advance()
            second = self._expect(TokenType.IDENT).value
            return ColumnRef(name=second.lower(), table=first.lower())
        return ColumnRef(name=first.lower())

    # -- boolean expressions ---------------------------------------------------

    def _or_expr(self) -> Expression:
        terms = [self._and_expr()]
        while self._accept_keyword("OR"):
            terms.append(self._and_expr())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def _and_expr(self) -> Expression:
        terms = [self._not_expr()]
        while self._accept_keyword("AND"):
            terms.append(self._not_expr())
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def _not_expr(self) -> Expression:
        if self._accept_keyword("NOT"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expression:
        left = self._additive()
        token = self._current
        if token.type == TokenType.OPERATOR and token.value in (
            "=", "<>", "<", "<=", ">", ">=",
        ):
            self._advance()
            right = self._additive()
            return Comparison(op=token.value, left=left, right=right)
        negated = False
        if token.is_keyword("NOT"):
            nxt = self._tokens[self._pos + 1]
            if nxt.is_keyword("BETWEEN", "IN", "LIKE"):
                self._advance()
                negated = True
                token = self._current
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return Between(expr=left, low=low, high=high, negated=negated)
        if token.is_keyword("IN"):
            self._advance()
            self._expect(TokenType.LPAREN)
            values = [self._literal()]
            while self._current.type == TokenType.COMMA:
                self._advance()
                values.append(self._literal())
            self._expect(TokenType.RPAREN)
            return InList(expr=left, values=tuple(values), negated=negated)
        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._expect(TokenType.STRING).value
            return Like(expr=left, pattern=pattern, negated=negated,
                        slot=self._next_slot())
        return left

    def _literal(self) -> Literal:
        token = self._current
        if token.type == TokenType.STRING:
            self._advance()
            return Literal(token.value, self._next_slot())
        if token.type == TokenType.NUMBER:
            self._advance()
            return Literal(_number(token.value), self._next_slot())
        if token.type == TokenType.OPERATOR and token.value == "-":
            # a negated literal keeps no slot: its value is not the
            # token's, so a plan holding it cannot take new values
            self._advance()
            num = self._expect(TokenType.NUMBER)
            self._next_slot()
            return Literal(-_number(num.value))
        raise ParseError(f"expected literal, found {token.value!r}",
                         token.position)

    # -- arithmetic ----------------------------------------------------------

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while (self._current.type == TokenType.OPERATOR
               and self._current.value in ("+", "-")):
            op = self._advance().value
            left = BinaryOp(op=op, left=left, right=self._multiplicative())
        return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while (self._current.type == TokenType.STAR
               or (self._current.type == TokenType.OPERATOR
                   and self._current.value in ("/", "%"))):
            op = "*" if self._current.type == TokenType.STAR else self._current.value
            self._advance()
            left = BinaryOp(op=op, left=left, right=self._unary())
        return left

    def _unary(self) -> Expression:
        if self._current.type == TokenType.OPERATOR and self._current.value == "-":
            self._advance()
            operand = self._unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)  # slotless, as in _literal
            return BinaryOp(op="-", left=Literal(0), right=operand)
        return self._primary()

    def _primary(self) -> Expression:
        token = self._current
        if token.type == TokenType.LPAREN:
            self._advance()
            inner = self._or_expr()
            self._expect(TokenType.RPAREN)
            return inner
        if token.type == TokenType.NUMBER:
            self._advance()
            return Literal(_number(token.value), self._next_slot())
        if token.type == TokenType.STRING:
            self._advance()
            return Literal(token.value, self._next_slot())
        if token.is_keyword(*AGGREGATE_FUNCTIONS):
            func = self._advance().value
            self._expect(TokenType.LPAREN)
            distinct = bool(self._accept_keyword("DISTINCT"))
            if self._current.type == TokenType.STAR:
                self._advance()
                arg = None
            elif self._current.type == TokenType.RPAREN and func == "COUNT":
                arg = None  # count() shorthand used in the paper
            else:
                arg = self._additive()
            self._expect(TokenType.RPAREN)
            return Aggregate(func=func, arg=arg, distinct=distinct)
        if token.type == TokenType.IDENT:
            return self._column_ref()
        raise ParseError(f"unexpected token {token.value!r}", token.position)


def _number(text: str):
    return float(text) if "." in text else int(text)
