"""Column slices and positional providers.

A *slice* is the value stream an expression evaluator consumes: either a
plain array (:class:`ArraySlice`) or a dictionary-compressed stream
(:class:`DictSlice`, codes + dictionary) on which predicates can be
evaluated against the small dictionary instead of the data (Section 2).

A *provider* resolves ``(table, column)`` to a slice for a given set of
base-table positions, following array index references for tables deeper
in the join graph.  This is the mechanism that makes the universal table
virtual: asking the provider for ``nation.n_name`` at fact positions
gathers through ``lineitem→orders→customer→nation`` with pure positional
lookups and no join.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..core import Database
from ..core.column import AIRColumn, DictColumn, FixedColumn
from ..core.dictionary import Dictionary
from ..core.schema import Reference, ReferencePath
from ..errors import ExecutionError


class ArraySlice:
    """A plain value stream."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    def decode(self) -> np.ndarray:
        return self.values

    def __len__(self) -> int:
        return len(self.values)


class DictSlice:
    """A dictionary-compressed value stream (codes into a dictionary)."""

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: np.ndarray, dictionary: Dictionary):
        self.codes = codes
        self.dictionary = dictionary

    def decode(self) -> np.ndarray:
        return self.dictionary.decode(self.codes)

    def dictionary_values(self) -> np.ndarray:
        """The dictionary payload as an object array (predicate target)."""
        out = np.empty(len(self.dictionary), dtype=object)
        out[:] = self.dictionary.values
        return out

    def __len__(self) -> int:
        return len(self.codes)


Slice = ArraySlice | DictSlice


class RowRange:
    """A contiguous band of base-table rows (``[start, stop)``).

    The data-skipping layer yields survivors as whole zone-block runs;
    carrying them as a range instead of an id array lets the provider
    serve root-table slices as zero-copy views (like the identity
    morsel) rather than positional gathers.
    """

    __slots__ = ("start", "stop")

    def __init__(self, start: int, stop: int):
        self.start = int(start)
        self.stop = int(stop)

    def __len__(self) -> int:
        return max(0, self.stop - self.start)

    def as_positions(self) -> np.ndarray:
        return np.arange(self.start, self.stop, dtype=np.int64)

    def take(self, idx: np.ndarray) -> np.ndarray:
        """Global ids of the range rows selected by *idx*."""
        return idx + self.start

    __getitem__ = take  # morsels refine positions with ``positions[idx]``

    def __repr__(self) -> str:
        return f"RowRange({self.start}, {self.stop})"


def chain_map(paths: Iterable[ReferencePath], base: str) -> Dict[str, List[Reference]]:
    """``table -> the reference chain from *base* to that table``.

    For paths rooted at *base* the chain is the path's own references; for
    a provider rooted at a first-level dimension, the leading root→dim
    reference is stripped.
    """
    chains: Dict[str, List[Reference]] = {base: []}
    for path in paths:
        refs = list(path.references)
        if refs and refs[0].child_table != base:
            # strip the prefix up to base
            try:
                start = next(i for i, r in enumerate(refs)
                             if r.child_table == base)
            except StopIteration:
                continue
            refs = refs[start:]
        acc: List[Reference] = []
        for ref in refs:
            acc = acc + [ref]
            chains.setdefault(ref.parent_table, acc)
    return chains


class PositionalProvider:
    """Resolves ``(table, column)`` to a slice at given base positions.

    ``positions=None`` means "all rows of the base table", avoiding the
    identity gather.  Per-table gathered positions are cached so multiple
    columns of one dimension share a single AIR traversal.
    """

    def __init__(self, db: Database, base: str,
                 chains: Dict[str, List[Reference]],
                 positions: Optional[np.ndarray] = None):
        self._db = db
        self._base = base
        self._chains = chains
        self._positions = positions
        self._cache: Dict[str, Optional[np.ndarray]] = {base: positions}

    @property
    def base(self) -> str:
        return self._base

    @property
    def length(self) -> int:
        if self._positions is not None:
            return len(self._positions)
        return self._db.table(self._base).num_rows

    def positions_for(self, table: str) -> Optional[np.ndarray]:
        """Positions in *table* aligned with the base positions."""
        if table in self._cache:
            return self._cache[table]
        if table not in self._chains:
            raise ExecutionError(
                f"table {table!r} is not reachable from {self._base!r}"
            )
        refs = self._chains[table]
        # walk the chain, reusing the cached prefix
        prefix = refs[:-1]
        prev_table = prefix[-1].parent_table if prefix else self._base
        prev = self.positions_for(prev_table) if prefix else self._positions
        last = refs[-1]
        column = self._db.table(last.child_table)[last.child_column]
        if not isinstance(column, AIRColumn):
            raise ExecutionError(
                f"column {last.child_table}.{last.child_column} is not an "
                "AIR column; run Database.airify() first"
            )
        if prev is None:
            pos = column.values()
        elif isinstance(prev, RowRange):
            pos = column.values()[prev.start: prev.stop]  # zero-copy view
        else:
            pos = column.take(prev)
        self._cache[table] = pos
        return pos

    def fetch(self, table: str, column_name: str) -> Slice:
        """The slice of ``table.column_name`` aligned with the base rows."""
        column = self._db.table(table)[column_name]
        pos = self.positions_for(table)
        if isinstance(pos, RowRange):
            # contiguous base band: root-table slices stay views
            if isinstance(column, DictColumn):
                return DictSlice(column.codes()[pos.start: pos.stop],
                                 column.dictionary)
            if isinstance(column, FixedColumn):
                return ArraySlice(column.values()[pos.start: pos.stop])
            pos = pos.as_positions()  # variable-width layouts gather
        if isinstance(column, DictColumn):
            codes = column.codes() if pos is None else column.take_codes(pos)
            return DictSlice(codes, column.dictionary)
        values = column.values() if pos is None else column.take(pos)
        return ArraySlice(values)

    def rebase(self, positions: np.ndarray,
               gathered: Optional[np.ndarray] = None) -> "PositionalProvider":
        """A new provider over a subset/reordering of base rows.

        *positions* index this provider's rows; a caller that already
        holds their base-row ids (a refining morsel) passes them as
        *gathered* so they are not gathered a second time."""
        if gathered is not None:
            positions = gathered
        elif isinstance(self._positions, RowRange):
            positions = self._positions.take(positions)
        elif self._positions is not None:
            positions = self._positions[positions]
        return PositionalProvider(self._db, self._base, self._chains, positions)


def universal_provider(db: Database, root: str,
                       paths: Iterable[ReferencePath],
                       positions: Optional[np.ndarray] = None) -> PositionalProvider:
    """A provider over the virtual universal table rooted at *root*."""
    return PositionalProvider(db, root, chain_map(paths, root), positions)


def dimension_provider(db: Database, first_dim: str,
                       paths: Iterable[ReferencePath],
                       positions: Optional[np.ndarray] = None) -> PositionalProvider:
    """A provider rooted at a first-level dimension (leaf-stage folding)."""
    relevant = [p for p in paths if first_dim in p.tables]
    return PositionalProvider(db, first_dim, chain_map(relevant, first_dim),
                              positions)
