"""Vectorized evaluation of bound expressions over column slices.

Predicates on dictionary-compressed columns are evaluated against the
*dictionary* (a handful of values) and then mapped through the codes with
one gather — the paper's "predicates become integer comparisons on
compression codes" optimization, generalized to ranges, IN and LIKE.
"""

from __future__ import annotations

import re

import numpy as np

from ..errors import ExecutionError
from ..plan.expressions import (
    BoundAnd,
    BoundArith,
    BoundBetween,
    BoundColumn,
    BoundCompare,
    BoundExpression,
    BoundIn,
    BoundLike,
    BoundLiteral,
    BoundNot,
    BoundOr,
)
from .slice import ArraySlice, DictSlice, PositionalProvider

_COMPARE_OPS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ARITH_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "%": np.mod,
}


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern (``%``, ``_``) into a compiled regex."""
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$")


def evaluate_predicate(expr: BoundExpression,
                       provider: PositionalProvider) -> np.ndarray:
    """Evaluate a boolean expression; returns a bool array over base rows."""
    result = _eval(expr, provider)
    if isinstance(result, DictSlice):
        raise ExecutionError("expression is not a predicate")
    values = result.values if isinstance(result, ArraySlice) else result
    if values.dtype != np.bool_:
        raise ExecutionError("expression is not a predicate")
    return values


def evaluate_measure(expr: BoundExpression,
                     provider: PositionalProvider) -> np.ndarray:
    """Evaluate a numeric expression; returns a value array over base rows."""
    result = _eval(expr, provider)
    if isinstance(result, DictSlice):
        result = ArraySlice(result.decode())
    values = result.values if isinstance(result, ArraySlice) else result
    if values.dtype == np.bool_:
        raise ExecutionError("predicate used where a measure was expected")
    return values


def _eval(expr: BoundExpression, provider: PositionalProvider):
    if isinstance(expr, BoundColumn):
        return provider.fetch(expr.table, expr.name)
    if isinstance(expr, BoundLiteral):
        return expr.value
    if isinstance(expr, BoundArith):
        left = _to_values(_eval(expr.left, provider))
        right = _to_values(_eval(expr.right, provider))
        # integer arithmetic evaluates in int64 whatever the operands'
        # storage width: the ufunc casts the fetched slices in its
        # buffered loop, so the only new array is the int64 result
        wide = (np.int64 if expr.op != "/" and _is_integer(left)
                and _is_integer(right) else None)
        return ArraySlice(np.asarray(_ARITH_OPS[expr.op](left, right,
                                                         dtype=wide)))
    if isinstance(expr, BoundCompare):
        return ArraySlice(_compare(expr, provider))
    if isinstance(expr, BoundBetween):
        mask = _between(expr, provider)
        return ArraySlice(~mask if expr.negated else mask)
    if isinstance(expr, BoundIn):
        mask = _in_list(expr, provider)
        return ArraySlice(~mask if expr.negated else mask)
    if isinstance(expr, BoundLike):
        mask = _like(expr, provider)
        return ArraySlice(~mask if expr.negated else mask)
    if isinstance(expr, BoundAnd):
        # accumulate in place into an owned copy of the first term's
        # mask: one allocation however many conjuncts (a term's mask may
        # alias stored column data, so the copy is also what makes the
        # in-place fold safe)
        out = None
        for term in expr.terms:
            mask = evaluate_predicate(term, provider)
            out = (np.array(mask, dtype=bool) if out is None
                   else np.logical_and(out, mask, out=out))
        return ArraySlice(out)
    if isinstance(expr, BoundOr):
        out = None
        for term in expr.terms:
            mask = evaluate_predicate(term, provider)
            out = (np.array(mask, dtype=bool) if out is None
                   else np.logical_or(out, mask, out=out))
        return ArraySlice(out)
    if isinstance(expr, BoundNot):
        return ArraySlice(~evaluate_predicate(expr.term, provider))
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _to_values(operand):
    if isinstance(operand, DictSlice):
        return operand.decode()
    if isinstance(operand, ArraySlice):
        return operand.values
    return operand  # literal scalar


def _compare(expr: BoundCompare, provider: PositionalProvider) -> np.ndarray:
    op = _COMPARE_OPS[expr.op]
    left = _eval(expr.left, provider)
    right = _eval(expr.right, provider)
    # dictionary trick: compare the dictionary, gather through codes
    if isinstance(left, DictSlice) and _is_scalar(right):
        per_code = op(left.dictionary_values(), right)
        return per_code.astype(bool)[left.codes]
    if isinstance(right, DictSlice) and _is_scalar(left):
        per_code = op(left, right.dictionary_values())
        return per_code.astype(bool)[right.codes]
    return np.asarray(op(_to_values(left), _to_values(right)), dtype=bool)


def _between(expr: BoundBetween, provider: PositionalProvider) -> np.ndarray:
    target = _eval(expr.expr, provider)
    low = _eval(expr.low, provider)
    high = _eval(expr.high, provider)
    if isinstance(target, DictSlice) and _is_scalar(low) and _is_scalar(high):
        dv = target.dictionary_values()
        per_code = (dv >= low) & (dv <= high)
        return per_code.astype(bool)[target.codes]
    values = _to_values(target)
    return (values >= _to_values(low)) & (values <= _to_values(high))


def _in_list(expr: BoundIn, provider: PositionalProvider) -> np.ndarray:
    target = _eval(expr.expr, provider)
    if isinstance(target, DictSlice):
        codes = target.dictionary.lookup_many(list(expr.values))
        wanted = codes[codes >= 0]
        return np.isin(target.codes, wanted)
    values = _to_values(target)
    if values.dtype.kind in "iu":
        # a literal the column's width cannot hold — out of its range,
        # or not an integer at all — matches no row
        info = np.iinfo(values.dtype)
        pool = np.array([v for v in expr.values
                         if (_is_integer(v) or isinstance(v, float)
                             and v.is_integer())
                         and info.min <= v <= info.max], dtype=values.dtype)
    else:
        pool = np.array(list(expr.values), dtype=values.dtype if
                        values.dtype.kind != "O" else object)
    return np.isin(values, pool)


def _like(expr: BoundLike, provider: PositionalProvider) -> np.ndarray:
    target = _eval(expr.expr, provider)
    regex = like_to_regex(expr.pattern)
    if isinstance(target, DictSlice):
        per_code = np.array(
            [bool(regex.match(str(v))) for v in target.dictionary.values],
            dtype=bool,
        )
        if len(per_code) == 0:
            return np.zeros(len(target), dtype=bool)
        return per_code[target.codes]
    values = _to_values(target)
    return np.array([bool(regex.match(str(v))) for v in values], dtype=bool)


def _is_integer(operand) -> bool:
    """An integer array or an integer scalar (``bool`` is neither)."""
    if isinstance(operand, np.ndarray):
        return operand.dtype.kind in "iu"
    return isinstance(operand, (int, np.integer)) and not isinstance(
        operand, bool)


def _is_scalar(operand) -> bool:
    return not isinstance(operand, (ArraySlice, DictSlice))
