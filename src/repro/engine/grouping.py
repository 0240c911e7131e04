"""Group vectors, group axes, and the Measure Index (Section 4.3).

For every GROUP BY column the engine builds a *group axis*: a compact
integer code domain plus the decoded values of each code.  Dimension-table
axes are the paper's *group vectors* — codes precomputed once over the
(first-level) dimension during leaf processing, then mapped to fact rows
by probing through the AIR column.  The per-row combination of all axis
codes is the paper's *Measure Index*: the flattened multidimensional-array
index of each fact tuple's group.

Group keys that reach the fact table through the *same* first-level
dimension are fused into one axis over their observed value combinations.
This implements the paper's remark that "the dimensionality of the
aggregation array can be further reduced if there are functional
dependencies among the grouping columns": e.g. grouping by ``d_year`` and
``d_yearmonth`` yields one axis of ~84 observed pairs instead of a
7 × 84 = 588-cell plane, and snowflake keys like ``n_name``/``r_name``
(both folding onto ``customer``) collapse the same way.

All encodings are global (independent of which fact rows are selected), so
per-partition aggregation states merge without re-encoding — this is what
makes the multicore path of Section 5 a pure element-wise merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Database
from ..errors import ExecutionError, PlanError
from ..plan.binder import GroupKey, LogicalPlan
from .slice import DictSlice, PositionalProvider, dimension_provider


@dataclass
class GroupAxis:
    """One dimension of the aggregation array.

    An axis decodes into one output column per key in ``keys``;
    ``columns[name][code]`` is the value of output *name* for axis code
    *code*, and ``card`` is the axis domain size.  For axes on dimension
    tables, ``dim_codes`` is the group vector over the rows of
    ``first_dim`` and fact rows obtain their code by a positional gather.
    For fact-table axes the code is derived from the value itself
    (dictionary code, offset integer, or sorted-unique rank).
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    keys: Tuple[GroupKey, ...]
    card: int
    columns: Dict[str, np.ndarray]
    first_dim: Optional[str] = None
    dim_codes: Optional[np.ndarray] = None
    int_offset: Optional[int] = None
    sorted_domain: Optional[np.ndarray] = None

    @property
    def key(self) -> GroupKey:
        """The single key of a one-column axis."""
        if len(self.keys) != 1:
            raise ExecutionError("axis has multiple keys")
        return self.keys[0]

    @property
    def values(self) -> np.ndarray:
        """Decoded values of a one-column axis (code order)."""
        return self.columns[self.key.name]

    def fact_codes(self, provider: PositionalProvider) -> np.ndarray:
        """Codes for each base row of *provider* (the fact-side gather)."""
        if self.dim_codes is not None:
            positions = provider.positions_for(self.first_dim)
            if positions is None:
                return self.dim_codes
            return self.dim_codes[positions]
        column = self.key.column
        sl = provider.fetch(column.table, column.name)
        if isinstance(sl, DictSlice):
            return sl.codes.astype(np.int64)
        if self.int_offset is not None:
            return (sl.values.astype(np.int64) - self.int_offset)
        codes = np.searchsorted(self.sorted_domain, sl.values)
        return codes.astype(np.int64)


def single_axis(key: GroupKey, card: int, values: np.ndarray,
                **kwargs) -> GroupAxis:
    """Convenience constructor for a one-column axis."""
    return GroupAxis(keys=(key,), card=max(1, card),
                     columns={key.name: values}, **kwargs)


def build_axes(db: Database, logical: LogicalPlan,
               memo=None) -> List[GroupAxis]:
    """Build the group axes, fusing same-path dimension keys.

    Axes are emitted in GROUP BY order of their first constituent key;
    the output columns themselves are reassembled by name, so fusing
    never changes the result, only the Measure Index domain.

    Axis encodings are *global* — independent of which fact rows any
    query selects — so they are exactly shareable between queries.
    ``memo`` taps into that: a callable ``memo(key, involved_tables,
    build)`` that may return a cached axis for *key* (validated against
    the mutation stamps of *involved_tables*) or call ``build()`` and
    remember it (see :mod:`repro.engine.cache`).
    """
    axes: List[GroupAxis] = []
    dim_batches: Dict[str, List[GroupKey]] = {}
    order: List[tuple] = []
    for key in logical.group_keys:
        if key.column.table == logical.root:
            order.append(("fact", key))
        else:
            first_dim = _first_dim_of(logical, key.column.table)
            if first_dim not in dim_batches:
                order.append(("dim", first_dim))
            dim_batches.setdefault(first_dim, []).append(key)
    for kind, payload in order:
        if kind == "fact":
            def build(payload=payload):
                return _fact_axis(db, logical, payload)
            involved = (logical.root,)
            key_id = ("fact", logical.root, payload)
        else:
            keys = tuple(dim_batches[payload])

            def build(payload=payload, keys=keys):
                return _dim_axis(db, logical, payload, list(keys))
            # the axis reads the whole subtree reachable through the
            # first-level dimension (snowflake keys gather through the
            # intermediate AIR columns), so all of it stamps the entry
            involved = tuple(sorted(
                {payload} | logical.subtree_of(payload)))
            key_id = ("dim", payload, keys, involved)
        axes.append(build() if memo is None else memo(key_id, involved, build))
    return axes


def _dim_axis(db: Database, logical: LogicalPlan, first_dim: str,
              keys: List[GroupKey]) -> GroupAxis:
    """A (possibly fused) axis over keys sharing one first-level dim."""
    provider = dimension_provider(db, first_dim, logical.paths)
    per_key: List[tuple] = []
    for key in keys:
        sl = provider.fetch(key.column.table, key.column.name)
        if isinstance(sl, DictSlice):
            per_key.append((key, sl.codes.astype(np.int64),
                            len(sl.dictionary), sl.dictionary_values()))
        else:
            uniq, inverse = np.unique(sl.values, return_inverse=True)
            per_key.append((key, inverse.astype(np.int64), len(uniq), uniq))

    if len(per_key) == 1:
        key, codes, card, values = per_key[0]
        return single_axis(key, card, values, first_dim=first_dim,
                           dim_codes=codes)

    # functional-dependency fusion: one code per *observed* combination
    combined = per_key[0][1].copy()
    for _, codes, card, _ in per_key[1:]:
        combined = combined * np.int64(max(1, card)) + codes
    uniq, inverse = np.unique(combined, return_inverse=True)
    columns: Dict[str, np.ndarray] = {}
    representative = np.full(len(uniq), -1, dtype=np.int64)
    representative[inverse] = np.arange(len(combined), dtype=np.int64)
    for key, codes, card, values in per_key:
        columns[key.name] = values[codes[representative]]
    return GroupAxis(
        keys=tuple(k for k, _, _, _ in per_key),
        card=max(1, len(uniq)),
        columns=columns,
        first_dim=first_dim,
        dim_codes=inverse.astype(np.int64),
    )


def _fact_axis(db: Database, logical: LogicalPlan, key: GroupKey) -> GroupAxis:
    """Axis over a fact-table column, encoded from global column stats."""
    column = db.table(logical.root)[key.column.name]
    from ..core.column import DictColumn

    if isinstance(column, DictColumn):
        values = np.empty(column.cardinality, dtype=object)
        values[:] = column.dictionary.values
        return single_axis(key, column.cardinality, values)
    raw = column.values()
    if len(raw) == 0:
        return single_axis(key, 1, np.zeros(1, dtype=raw.dtype), int_offset=0)
    if raw.dtype.kind in ("i", "u"):
        lo, hi = int(raw.min()), int(raw.max())
        domain = hi - lo + 1
        if domain <= 4 * len(np.unique(raw[: 65536])) + 1024 or domain <= 65536:
            return single_axis(
                key, domain, np.arange(lo, hi + 1, dtype=raw.dtype),
                int_offset=lo)
    uniq = np.unique(raw)
    return single_axis(key, len(uniq), uniq, sorted_domain=uniq)


def _first_dim_of(logical: LogicalPlan, table: str) -> str:
    for path in logical.paths:
        if table in path.tables[1:]:
            return path.references[0].parent_table
    raise PlanError(f"table {table!r} is not on any reference path")


def combine_codes(code_arrays: Sequence[np.ndarray],
                  cards: Sequence[int]) -> np.ndarray:
    """Ravel per-axis codes into the flat Measure Index.

    One owned allocation (the output), however many axes: later axes
    fold in with in-place multiply-add instead of per-axis temporaries —
    this runs once per morsel on every selected row.
    """
    if not code_arrays:
        raise ExecutionError("no group axes to combine")
    composite = code_arrays[0].astype(np.int64)  # astype copies: owned
    for codes, card in zip(code_arrays[1:], cards[1:]):
        np.multiply(composite, np.int64(card), out=composite)
        np.add(composite, codes, out=composite, casting="unsafe")
    return composite


def total_groups(cards: Sequence[int]) -> int:
    """Size of the dense aggregation array (product of axis domains)."""
    total = 1
    for card in cards:
        total *= max(1, card)
    return total


def decode_group_columns(axes: Sequence[GroupAxis],
                         composite: np.ndarray) -> dict:
    """Unravel composite codes back into per-key value columns."""
    out = {}
    remaining = composite.astype(np.int64)
    for axis in reversed(list(axes)):
        codes = remaining % axis.card
        remaining = remaining // axis.card
        for name, values in axis.columns.items():
            out[name] = values[codes]
    return out
