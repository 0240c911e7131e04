"""The catalog: tables, array index references, and the join graph.

The structure of a star/snowflake schema is a directed graph whose vertexes
are tables and whose edges are array index references (FK→PK).  A vertex
with no incoming edge is a *root* (the fact table); the others are *leaf*
(dimension) tables, each reachable from the root through a chain of
references (Section 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import SchemaError
from .column import AIRColumn, DictColumn, StringColumn, empty_buffer, gather_into
from .table import Table
from .types import reference_type

#: rows per slice of the AIR remap in :meth:`Database.consolidate`
_SLICE = 1 << 16


@dataclass(frozen=True)
class Reference:
    """An array index reference: ``child.fk_column → parent``.

    ``parent_key`` names the user-visible key column of the parent that the
    raw data joins on (e.g. ``d_datekey``).  After :meth:`Database.airify`,
    the child column physically stores parent *array indexes* and
    ``parent_key`` is only kept for SQL binding (queries still say
    ``lo_orderdate = d_datekey``).
    """

    child_table: str
    child_column: str
    parent_table: str
    parent_key: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.child_table}.{self.child_column} -> {self.parent_table}"


@dataclass(frozen=True)
class ReferencePath:
    """A chain of references from the root table to one leaf table.

    For the snowflake query of the paper's Fig. 3 one path is
    ``lineitem → order → customer → nation → region``.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    references: tuple

    @property
    def tables(self) -> List[str]:
        """Tables along the path, starting at the root."""
        names = [self.references[0].child_table]
        names.extend(r.parent_table for r in self.references)
        return names

    @property
    def leaf(self) -> str:
        """The final (deepest) table of the path."""
        return self.references[-1].parent_table

    def __len__(self) -> int:
        return len(self.references)

    def __str__(self) -> str:
        return " -> ".join(self.tables)


class Database:
    """A named collection of tables plus the reference (join) graph."""

    def __init__(self, name: str = "db"):
        self.name = name
        self.tables: Dict[str, Table] = {}
        self.references: List[Reference] = []
        # Declared physical layout per table: a tuple of "table.column"
        # sort keys (outermost first; parent-table attributes resolve
        # through one AIR hop).  Purely descriptive until
        # :meth:`compact` re-establishes it after update churn.
        self.clustering: Dict[str, tuple] = {}

    # -- definition -----------------------------------------------------------

    def add_table(self, table: Table) -> Table:
        """Register a table; its name must be unique."""
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self.tables[table.name] = table
        return table

    def create_table(self, name: str, data: Mapping[str, Sequence],
                     dict_threshold: float = 0.1, mvcc: bool = False) -> Table:
        """Create and register a table from column data."""
        return self.add_table(
            Table.from_arrays(name, data, dict_threshold=dict_threshold, mvcc=mvcc)
        )

    def add_reference(self, child_table: str, child_column: str,
                      parent_table: str, parent_key: Optional[str] = None) -> Reference:
        """Declare a FK→PK reference edge in the join graph."""
        for spec, table in ((child_table, child_table), (parent_table, parent_table)):
            if spec not in self.tables:
                raise SchemaError(f"unknown table {table!r} in reference")
        if child_column not in self.tables[child_table]:
            raise SchemaError(
                f"unknown column {child_column!r} in table {child_table!r}"
            )
        if parent_key is not None and parent_key not in self.tables[parent_table]:
            raise SchemaError(
                f"unknown key column {parent_key!r} in table {parent_table!r}"
            )
        ref = Reference(child_table, child_column, parent_table, parent_key)
        self.references.append(ref)
        return ref

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    # -- join graph -------------------------------------------------------------

    def outgoing(self, table: str) -> List[Reference]:
        """References whose child is *table* (edges leaving the vertex)."""
        return [r for r in self.references if r.child_table == table]

    def incoming(self, table: str) -> List[Reference]:
        """References whose parent is *table* (edges entering the vertex)."""
        return [r for r in self.references if r.parent_table == table]

    def roots(self) -> List[str]:
        """Tables with no incoming reference — the fact table(s)."""
        referenced = {r.parent_table for r in self.references}
        return [name for name in self.tables if name not in referenced]

    def reference_paths(self, root: str,
                        restrict_to: Optional[Iterable[str]] = None) -> List[ReferencePath]:
        """All reference chains from *root*, optionally restricted to a
        subset of tables (the tables a query actually touches).

        One path is returned per reachable table, deepest chain form; the
        result is ordered by path length so snowflake chains can be folded
        outside-in.
        """
        allowed = set(restrict_to) if restrict_to is not None else None
        paths: List[ReferencePath] = []
        stack: List[tuple] = [(root, ())]
        seen = set()
        while stack:
            current, refs = stack.pop()
            for ref in self.outgoing(current):
                if allowed is not None and ref.parent_table not in allowed:
                    continue
                if ref.parent_table in seen:
                    raise SchemaError(
                        f"table {ref.parent_table!r} reachable through multiple "
                        "paths; not a tree-shaped schema"
                    )
                seen.add(ref.parent_table)
                chain = refs + (ref,)
                paths.append(ReferencePath(chain))
                stack.append((ref.parent_table, chain))
        return sorted(paths, key=len)

    def reference_for(self, child_table: str, child_column: str) -> Optional[Reference]:
        """The reference declared on ``child_table.child_column``, if any."""
        for ref in self.references:
            if ref.child_table == child_table and ref.child_column == child_column:
                return ref
        return None

    # -- AIR loading ------------------------------------------------------------

    def airify(self) -> None:
        """Convert every key-valued FK column into an AIR column.

        This is the load-time step that bakes the join into the storage
        model: for each declared reference whose child column still holds
        parent *key values*, build the parent key→position map once, map
        the child values to parent array indexes, and replace the column
        with an :class:`AIRColumn`.  After this, all joins are positional.
        """
        for ref in self.references:
            child = self.table(ref.child_table)
            column = child[ref.child_column]
            if isinstance(column, AIRColumn):
                continue
            if ref.parent_key is None:
                # Values are already positions by construction; just
                # retag, at int32 (a value past it widens the column)
                retagged = AIRColumn(ref.child_column, ref.parent_table)
                retagged.append(column.values())
                child.replace_column(ref.child_column, retagged)
                continue
            parent = self.table(ref.parent_table)
            key_column = parent[ref.parent_key]
            positions = _key_to_position(key_column, column.values())
            # a fresh array: the AIR column adopts it without a copy
            child.replace_column(
                ref.child_column,
                AIRColumn.wrap_air(ref.child_column, ref.parent_table,
                                   positions),
            )

    def consolidate(self, table_name: str,
                    order: Optional[np.ndarray] = None) -> np.ndarray:
        """Consolidate *table_name* and rewrite all incoming AIR columns.

        *order* optionally lays the surviving rows out in an explicit
        physical order (see :meth:`Table.consolidate`).  Dangling
        references (children pointing at deleted parent slots) are
        rejected — deletion of referenced dimension tuples violates the FK
        constraint, exactly as in a conventional warehouse.
        """
        mapping = self.table(table_name).consolidate(order=order)
        for ref in self.incoming(table_name):
            child = self.table(ref.child_table)
            column = child[ref.child_column]
            if not isinstance(column, AIRColumn):
                continue
            # one fact-sized buffer at the reference width: remapped,
            # checked and patched a slice at a time, and adopted by the
            # new column
            positions = column.values()
            if len(positions) and (positions.min() < 0
                                   or positions.max() >= len(mapping)):
                raise SchemaError(f"reference {ref} holds a position "
                                  f"outside {table_name!r}")
            new = gather_into(mapping, positions, empty_buffer(
                len(positions), reference_type(len(mapping)).numpy_dtype))
            live = None
            for start in range(0, len(new), _SLICE):
                part = new[start:start + _SLICE]
                dangling = part < 0
                if not dangling.any():
                    continue
                if live is None:
                    live = child.live_mask()
                if (dangling & live[start:start + _SLICE]).any():
                    raise SchemaError(
                        f"consolidating {table_name!r} would break "
                        f"reference {ref}")
                # deleted child rows may hold stale references; park them
                # at 0 (no query reads a deleted row)
                part[dangling] = 0
            child.replace_column(
                ref.child_column,
                AIRColumn.wrap_air(ref.child_column, ref.parent_table, new),
            )
        return mapping

    def compact(self, table_name: str, store=None) -> dict:
        """Clustering-preserving compaction of *table_name*.

        Re-sorts the live rows into the table's declared
        :attr:`clustering` order (plain consolidation when none is
        declared), rewrites incoming AIR references, and rebuilds the
        block summaries in *store* (when given).  Every mutation stamp
        the operation touches is bumped by the underlying consolidation,
        so cache tiers and shard workers revalidate.  Returns a summary
        dict; see :func:`repro.core.compaction.compact_database`.
        """
        from .compaction import compact_database
        return compact_database(self, table_name, store=store)

    # -- introspection -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total storage footprint of all tables."""
        return sum(t.nbytes for t in self.tables.values())

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, tables={list(self.tables)}, "
            f"references={len(self.references)})"
        )


def _key_to_position(key_column, fk_values) -> np.ndarray:
    """Map child FK key values onto parent array indexes, in a fresh
    buffer at the reference width of the parent
    (:func:`~repro.core.types.reference_type`) that shares no memory
    with *fk_values* (the AIR column adopts it)."""
    keys = key_column.values()
    fk_values = np.asarray(fk_values)
    if isinstance(key_column, (DictColumn, StringColumn)) or keys.dtype.kind == "O":
        lookup = {k: i for i, k in enumerate(keys)}
        try:
            return np.fromiter(
                (lookup[v] for v in fk_values),
                dtype=reference_type(len(keys)).numpy_dtype, count=len(fk_values)
            )
        except KeyError as exc:
            raise SchemaError(f"dangling foreign key value {exc.args[0]!r}") from None
    dense = _dense_key_positions(keys, fk_values)
    if dense is not None:
        return dense
    return _sorted_key_positions(keys, fk_values)


def _dense_key_positions(keys: np.ndarray,
                         fk_values: np.ndarray) -> Optional[np.ndarray]:
    """Positions for integer keys ``k0, k0+1, …, k0+n-1`` in order — the
    surrogate-key layout of every generated dimension — where a key's
    position is its offset ``fk - k0``; ``None`` for any other layout."""
    if (len(keys) == 0 or keys.dtype.kind not in "iu"
            or fk_values.dtype.kind not in "iu"
            or not bool((np.diff(keys) == 1).all())):
        return None
    # checked before the offsets are stored, so none can wrap
    lo, hi = int(keys[0]), int(keys[0]) + len(keys) - 1
    dangling = (fk_values < lo) | (fk_values > hi)
    if dangling.any():
        raise SchemaError(
            f"dangling foreign key value {fk_values[dangling][0]!r}")
    return np.subtract(fk_values, lo, dtype=np.int64, casting="unsafe",
                       out=_positions_buffer(len(fk_values), keys))


def _sorted_key_positions(keys: np.ndarray,
                          fk_values: np.ndarray) -> np.ndarray:
    """Positions for arbitrary fixed-width keys, by binary search."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    slots = np.searchsorted(sorted_keys, fk_values)
    slots = np.clip(slots, 0, len(sorted_keys) - 1)
    if len(fk_values) and not np.array_equal(sorted_keys[slots], fk_values):
        bad = fk_values[sorted_keys[slots] != fk_values][0]
        raise SchemaError(f"dangling foreign key value {bad!r}")
    return np.take(order, slots, mode="clip",
                   out=_positions_buffer(len(slots), keys))


def _positions_buffer(length: int, keys: np.ndarray) -> np.ndarray:
    """A fresh buffer for *length* positions into a parent of *keys*."""
    return empty_buffer(length, reference_type(len(keys)).numpy_dtype)
