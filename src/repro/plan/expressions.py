"""Bound expression trees.

The binder rewrites parser AST nodes into *bound* nodes whose column
references carry their resolved table.  Bound trees are what the engine's
vectorized evaluator consumes.

A literal bound from the WHERE clause keeps the parser's ``slot`` (its
place among the clause's literals, see
:func:`~repro.sqlparser.parser.statement_shape`), outside equality and
``repr``: :func:`substitute` puts another text's values into those slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class BoundColumn:
    """A column resolved to its owning table."""

    __portable__ = True  # pickled across process boundaries (astore lint)

    table: str
    name: str

    def __str__(self) -> str:
        return f"{self.table}.{self.name}"


@dataclass(frozen=True)
class BoundLiteral:

    __portable__ = True  # pickled across process boundaries (astore lint)
    value: Union[int, float, str]
    slot: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoundArith:

    __portable__ = True  # pickled across process boundaries (astore lint)
    op: str  # + - * / %
    left: "BoundExpression"
    right: "BoundExpression"


@dataclass(frozen=True)
class BoundCompare:

    __portable__ = True  # pickled across process boundaries (astore lint)
    op: str  # = <> < <= > >=
    left: "BoundExpression"
    right: "BoundExpression"


@dataclass(frozen=True)
class BoundBetween:

    __portable__ = True  # pickled across process boundaries (astore lint)
    expr: "BoundExpression"
    low: "BoundExpression"
    high: "BoundExpression"
    negated: bool = False


@dataclass(frozen=True)
class BoundIn:

    __portable__ = True  # pickled across process boundaries (astore lint)
    expr: "BoundExpression"
    values: Tuple[Union[int, float, str], ...]
    negated: bool = False
    slots: Tuple[Optional[int], ...] = field(default=(), compare=False,
                                             repr=False)


@dataclass(frozen=True)
class BoundLike:

    __portable__ = True  # pickled across process boundaries (astore lint)
    expr: "BoundExpression"
    pattern: str
    negated: bool = False
    slot: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoundAnd:

    __portable__ = True  # pickled across process boundaries (astore lint)
    terms: Tuple["BoundExpression", ...]


@dataclass(frozen=True)
class BoundOr:

    __portable__ = True  # pickled across process boundaries (astore lint)
    terms: Tuple["BoundExpression", ...]


@dataclass(frozen=True)
class BoundNot:

    __portable__ = True  # pickled across process boundaries (astore lint)
    term: "BoundExpression"


BoundExpression = Union[
    BoundColumn, BoundLiteral, BoundArith, BoundCompare, BoundBetween,
    BoundIn, BoundLike, BoundAnd, BoundOr, BoundNot,
]


def bound_walk(expr: BoundExpression):
    """Yield *expr* and all sub-expressions, depth-first."""
    yield expr
    if isinstance(expr, (BoundArith, BoundCompare)):
        children = (expr.left, expr.right)
    elif isinstance(expr, BoundBetween):
        children = (expr.expr, expr.low, expr.high)
    elif isinstance(expr, (BoundIn, BoundLike)):
        children = (expr.expr,)
    elif isinstance(expr, (BoundAnd, BoundOr)):
        children = expr.terms
    elif isinstance(expr, BoundNot):
        children = (expr.term,)
    else:
        children = ()
    for child in children:
        yield from bound_walk(child)


def bound_columns(expr: BoundExpression) -> list[BoundColumn]:
    """All bound column references inside *expr* (in order)."""
    return [e for e in bound_walk(expr) if isinstance(e, BoundColumn)]


def tables_of(expr: BoundExpression) -> set[str]:
    """The set of tables an expression touches."""
    return {c.table for c in bound_columns(expr)}


def literal_slots(expr: BoundExpression) -> Dict[int, object]:
    """``{slot: value}`` of every slotted literal inside *expr*."""
    out: Dict[int, object] = {}
    for node in bound_walk(expr):
        if isinstance(node, BoundLiteral) and node.slot is not None:
            out[node.slot] = node.value
        elif isinstance(node, BoundIn):
            out.update((slot, value)
                       for slot, value in zip(node.slots, node.values)
                       if slot is not None)
        elif isinstance(node, BoundLike) and node.slot is not None:
            out[node.slot] = node.pattern
    return out


def substitute(expr: BoundExpression,
               values: Sequence[object]) -> BoundExpression:
    """*expr* with ``values[slot]`` in each slotted literal (the tree is
    rebuilt; slotless literals and columns are shared)."""
    if isinstance(expr, BoundLiteral):
        if expr.slot is None:
            return expr
        return BoundLiteral(values[expr.slot], expr.slot)
    if isinstance(expr, (BoundArith, BoundCompare)):
        return type(expr)(expr.op, substitute(expr.left, values),
                          substitute(expr.right, values))
    if isinstance(expr, BoundBetween):
        return BoundBetween(substitute(expr.expr, values),
                            substitute(expr.low, values),
                            substitute(expr.high, values), expr.negated)
    if isinstance(expr, BoundIn):
        new = list(expr.values)
        for i, slot in enumerate(expr.slots):
            if slot is not None:
                new[i] = values[slot]
        return BoundIn(substitute(expr.expr, values), tuple(new),
                       expr.negated, expr.slots)
    if isinstance(expr, BoundLike):
        return BoundLike(substitute(expr.expr, values),
                         expr.pattern if expr.slot is None
                         else values[expr.slot], expr.negated, expr.slot)
    if isinstance(expr, (BoundAnd, BoundOr)):
        return type(expr)(tuple(substitute(term, values)
                                for term in expr.terms))
    if isinstance(expr, BoundNot):
        return BoundNot(substitute(expr.term, values))
    return expr


@dataclass(frozen=True)
class ColumnInterval:
    """A value interval implied by a predicate over one column.

    Rows passing the predicate satisfy ``lo <= column <= hi`` (``None``
    bounds are unbounded) — a *necessary* condition, which is what makes
    interval-vs-zone-map disjointness a sound skip.  ``exact`` marks
    intervals that are also *sufficient*: every value inside the
    interval passes (true for pure range/equality predicates, false for
    the IN-list superset interval), which is what allows a block whose
    zone-map range lies entirely inside the interval to be accepted
    without evaluating the predicate.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    column: BoundColumn
    lo: Optional[float] = None
    hi: Optional[float] = None
    exact: bool = True


def _interval_literal(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def predicate_interval(expr: BoundExpression) -> Optional[ColumnInterval]:
    """The :class:`ColumnInterval` implied by *expr*, or ``None``.

    Recognizes single-column comparisons against numeric literals
    (``=``, ``<``, ``<=``, ``>``, ``>=``, either operand order),
    non-negated BETWEEN with literal bounds, and non-negated IN over
    numeric literals (as a superset interval).  Anything else — LIKE,
    disjunctions, negations, arithmetic, string bounds — is not interval-
    prunable and returns ``None``.
    """
    if isinstance(expr, BoundCompare):
        left, right, op = expr.left, expr.right, expr.op
        if (isinstance(right, BoundColumn)
                and isinstance(left, BoundLiteral)):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            left, right = right, left
            op = flipped.get(op, op)
        if not (isinstance(left, BoundColumn)
                and isinstance(right, BoundLiteral)
                and _interval_literal(right.value)):
            return None
        value = right.value
        if op == "=":
            return ColumnInterval(left, value, value)
        if op == "<":
            return ColumnInterval(left, None, value, exact=False)
        if op == "<=":
            return ColumnInterval(left, None, value)
        if op == ">":
            return ColumnInterval(left, value, None, exact=False)
        if op == ">=":
            return ColumnInterval(left, value, None)
        return None  # <> implies no interval
    if isinstance(expr, BoundBetween) and not expr.negated:
        if (isinstance(expr.expr, BoundColumn)
                and isinstance(expr.low, BoundLiteral)
                and isinstance(expr.high, BoundLiteral)
                and _interval_literal(expr.low.value)
                and _interval_literal(expr.high.value)):
            return ColumnInterval(expr.expr, expr.low.value, expr.high.value)
        return None
    if isinstance(expr, BoundIn) and not expr.negated:
        if (isinstance(expr.expr, BoundColumn) and expr.values
                and all(_interval_literal(v) for v in expr.values)):
            return ColumnInterval(expr.expr, min(expr.values),
                                  max(expr.values), exact=False)
    return None


@dataclass(frozen=True)
class CodeSetPredicate:
    """A membership set implied by a predicate over one column.

    Rows passing the predicate have ``column`` equal to one of
    ``values`` — both necessary and sufficient, so against a per-block
    code-set summary a disjoint block SKIPs and (with an exact summary)
    a subset block fully ACCEPTs.  Unlike :class:`ColumnInterval` this
    admits string literals: dictionary-coded columns resolve values to
    codes at verdict time, which is exactly where min/max maps go blind.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    column: BoundColumn
    values: Tuple[Union[int, float, str], ...]


def _code_set_literal(value) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def predicate_code_set(expr: BoundExpression) -> Optional[CodeSetPredicate]:
    """The :class:`CodeSetPredicate` implied by *expr*, or ``None``.

    Recognizes single-column equality against an integer or string
    literal (either operand order) and non-negated IN over such
    literals.  Ranges, LIKE, disjunctions, and negations carry no
    finite membership set and return ``None``.
    """
    if isinstance(expr, BoundCompare) and expr.op == "=":
        left, right = expr.left, expr.right
        if isinstance(right, BoundColumn) and isinstance(left, BoundLiteral):
            left, right = right, left
        if (isinstance(left, BoundColumn) and isinstance(right, BoundLiteral)
                and _code_set_literal(right.value)):
            return CodeSetPredicate(left, (right.value,))
        return None
    if isinstance(expr, BoundIn) and not expr.negated:
        if (isinstance(expr.expr, BoundColumn) and expr.values
                and all(_code_set_literal(v) for v in expr.values)):
            return CodeSetPredicate(expr.expr, tuple(expr.values))
    return None
