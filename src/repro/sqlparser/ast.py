"""Abstract syntax tree for the SPJGA SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class ColumnRef:
    """A possibly table-qualified column reference (``lineorder.lo_revenue``)."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    """A numeric or string constant."""

    value: Union[int, float, str]


@dataclass(frozen=True)
class BinaryOp:
    """Arithmetic: ``+ - * / %``."""

    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Comparison:
    """``= <> < <= > >=`` between two expressions."""

    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Between:
    """``expr BETWEEN low AND high`` (inclusive), or its negation."""

    expr: "Expression"
    low: "Expression"
    high: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    """``expr IN (v1, v2, ...)``, or its negation."""

    expr: "Expression"
    values: Tuple[Literal, ...]
    negated: bool = False


@dataclass(frozen=True)
class Like:
    """``expr LIKE pattern`` with ``%``/``_`` wildcards."""

    expr: "Expression"
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class And:
    """N-ary conjunction."""

    terms: Tuple["Expression", ...]


@dataclass(frozen=True)
class Or:
    """N-ary disjunction."""

    terms: Tuple["Expression", ...]


@dataclass(frozen=True)
class Not:
    """Logical negation."""

    term: "Expression"


AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class Aggregate:
    """An aggregate call; ``arg is None`` means ``COUNT(*)``."""

    func: str
    arg: Optional["Expression"]
    distinct: bool = False


Expression = Union[ColumnRef, Literal, BinaryOp, Comparison, Between,
                   InList, Like, And, Or, Not, Aggregate]


@dataclass(frozen=True)
class SelectItem:
    """One projection of the SELECT list."""

    expr: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key (an output column name/alias or an expression)."""

    expr: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SPJGA query."""

    items: Tuple[SelectItem, ...]
    tables: Tuple[str, ...]
    where: Optional[Expression] = None
    group_by: Tuple[ColumnRef, ...] = field(default=())
    order_by: Tuple[OrderItem, ...] = field(default=())
    limit: Optional[int] = None


def walk(expr: Expression):
    """Yield *expr* and every sub-expression, depth-first."""
    yield expr
    children: tuple
    if isinstance(expr, BinaryOp) or isinstance(expr, Comparison):
        children = (expr.left, expr.right)
    elif isinstance(expr, Between):
        children = (expr.expr, expr.low, expr.high)
    elif isinstance(expr, InList):
        children = (expr.expr, *expr.values)
    elif isinstance(expr, Like):
        children = (expr.expr,)
    elif isinstance(expr, (And, Or)):
        children = expr.terms
    elif isinstance(expr, Not):
        children = (expr.term,)
    elif isinstance(expr, Aggregate):
        children = (expr.arg,) if expr.arg is not None else ()
    else:
        children = ()
    for child in children:
        yield from walk(child)


def column_refs(expr: Expression) -> list[ColumnRef]:
    """All column references inside *expr* (with duplicates, in order)."""
    return [e for e in walk(expr) if isinstance(e, ColumnRef)]


def has_aggregate(expr: Expression) -> bool:
    """True if *expr* contains an aggregate call."""
    return any(isinstance(e, Aggregate) for e in walk(expr))
