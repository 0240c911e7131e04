"""Clustering-preserving compaction: the maintenance re-sort job.

Streaming appends land rows wherever slot reuse puts them and MVCC churn
leaves deleted slots behind, so the hierarchically clustered layout the
loader produced — the layout that makes block summaries (zone maps and
code sets, :mod:`repro.core.statistics`) selective — decays over time.
``astore compact`` (and the serve layer's ``{"compact": table}`` admin
verb) runs :func:`compact_database`:

1. compute the live rows' positions in the table's declared
   :attr:`~repro.core.schema.Database.clustering` order (value order,
   resolving parent-table attributes through one AIR hop) with one
   stable argsort over a composite key the spec's keys fold into —
   exactly the ``np.lexsort`` order, see :func:`clustering_sort_order`;
2. :meth:`~repro.core.schema.Database.consolidate` with that explicit
   order — drops deleted slots, lays rows out clustered, and rewrites
   every incoming AIR reference;
3. eagerly rebuild the table's block summaries into the serving store.

The consolidation bumps the table's mutation stamp (and, through AIR
rewrites, the stamps of referencing children), so every cache tier
and shard worker revalidates — a racing reader can see
the pre- or post-compaction database, never a mix.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import SchemaError
from .column import AIRColumn, DictColumn
from .schema import Database


def _row_keys(column, rows: np.ndarray) -> np.ndarray:
    """Value-ordered sort keys for *column* at physical positions *rows*.

    Dict-coded columns must not sort by their (insertion-ordered) codes:
    the key is each row's rank in dictionary *value* order.  Any other
    non-numeric column is rank-encoded the same way via ``np.unique``.
    """
    if isinstance(column, DictColumn):
        dictionary = np.asarray(column.dictionary.values, dtype=object)
        rank = np.empty(len(dictionary), dtype=np.int64)
        rank[np.argsort(dictionary, kind="stable")] = np.arange(len(dictionary))
        return rank[np.asarray(column.codes())[rows]]
    values = np.asarray(column.values())
    if values.dtype.kind == "O":
        _, inverse = np.unique(values, return_inverse=True)
        return inverse[rows]
    return values[rows]


def _key_route(db: Database, table_name: str,
               item: str) -> Tuple[Optional[str], object]:
    """One clustering-spec entry (``"table.column"``) as ``(air, column)``:
    the row keys are *column*'s value-ordered keys, read at the table's
    own rows (``air`` is ``None``) or through its AIR column *air* at the
    referenced parent rows."""
    tab = db.table(table_name)
    tname, _, cname = item.partition(".")
    if not cname:
        raise SchemaError(f"clustering key {item!r} must be 'table.column'")
    if tname == table_name:
        column = tab[cname]
        if isinstance(column, AIRColumn):
            # positions order by parent storage; sort by the declared
            # parent key's value order when one is known
            ref = db.reference_for(table_name, cname)
            if ref is not None and ref.parent_key is not None:
                return cname, db.table(ref.parent_table)[ref.parent_key]
        return None, column
    for ref in db.outgoing(table_name):
        if ref.parent_table != tname:
            continue
        if not isinstance(tab[ref.child_column], AIRColumn):
            raise SchemaError(
                f"clustering key {item!r} needs the AIR reference "
                f"{table_name}.{ref.child_column} -> {tname}")
        return ref.child_column, db.table(tname)[cname]
    raise SchemaError(
        f"clustering key {item!r} is not reachable from {table_name!r}")


def _sort_keys(db: Database, table_name: str, live: np.ndarray, spec):
    """The spec's sort keys at the *live* rows as ``(codes, radix)``
    pairs (see :func:`_dense_codes`), outermost first, one at a time.

    A key read through an AIR column is encoded over the parent's rows
    and then gathered, so its offset and radix come from the small
    parent array.  Consecutive keys read through the same AIR column (a
    dimension hierarchy such as mfgr > category > brand) fold over the
    parent's rows and are densely ranked there, so the fact table
    gathers one combined key instead of one per level — the same order,
    since the rank is order-preserving and injective on the level
    tuple."""
    tab = db.table(table_name)
    routes = [_key_route(db, table_name, item) for item in spec]
    start = 0
    while start < len(routes):
        air, column = routes[start]
        stop = start + 1
        if air is None:
            yield _dense_codes(_row_keys(column, live))
            start = stop
            continue
        while stop < len(routes) and routes[stop][0] == air:
            stop += 1
        rows = np.arange(len(column), dtype=np.int64)
        parent, radix = None, 1
        for _, level in routes[start:stop]:
            parent, radix = _fold(parent, radix,
                                  *_dense_codes(_row_keys(level, rows)))
        if stop - start > 1:
            uniq, parent = np.unique(parent, return_inverse=True)
            radix = max(1, len(uniq))
        yield parent[np.asarray(tab[air].values())[live]], radix
        start = stop


#: Folded composites stay below this bound, so ``composite * radix +
#: code`` never overflows int64.
_COMPOSITE_LIMIT = 1 << 62


def _dense_codes(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving codes ``0 .. radix-1`` for *keys* and their
    radix: an integer key offset by its minimum when its span is small
    enough to fold, any other key ranked by ``np.unique`` (which orders
    like a sort, NaNs last and equal)."""
    if keys.dtype.kind == "i" and len(keys):
        lo, hi = int(keys.min()), int(keys.max())
        if hi - lo < _COMPOSITE_LIMIT:
            codes = keys.astype(np.int64)
            codes -= lo
            return codes, hi - lo + 1
    uniq, codes = np.unique(keys, return_inverse=True)
    return codes.astype(np.int64, copy=False), max(1, len(uniq))


def _fold(composite: Optional[np.ndarray], radix: int, codes: np.ndarray,
          key_radix: int) -> Tuple[np.ndarray, int]:
    """Fold the next (inner) key's *codes* into the running composite."""
    if composite is None:
        return codes, key_radix
    if radix * key_radix >= _COMPOSITE_LIMIT:
        # re-rank the composite to its distinct values; an ever wider
        # key is ranked too, so both radices are at most the row count
        uniq, composite = np.unique(composite, return_inverse=True)
        composite = composite.astype(np.int64, copy=False)
        radix = max(1, len(uniq))
        if radix * key_radix >= _COMPOSITE_LIMIT:
            uniq, codes = np.unique(codes, return_inverse=True)
            codes = codes.astype(np.int64, copy=False)
            key_radix = max(1, len(uniq))
    composite *= key_radix
    composite += codes
    return composite, radix * key_radix


def clustering_sort_order(db: Database, table_name: str,
                          spec) -> np.ndarray:
    """The live rows of *table_name* ordered by the clustering *spec*.

    *spec* is a sequence of ``"table.column"`` keys, outermost first.
    Returns physical positions suitable for
    :meth:`~repro.core.schema.Database.consolidate`'s ``order``.

    The keys fold, outermost first and one at a time, into one int64
    composite (each key offset to ``0 .. radix-1`` and the composite
    scaled by that radix; re-ranked when the next radix would
    overflow), so the order is one stable argsort.  The encoding is
    order-preserving and injective on key tuples, so the permutation is
    exactly ``np.lexsort``'s over the same keys, and at most the
    composite and one resolved key are alive at a time.
    """
    tab = db.table(table_name)
    live = np.flatnonzero(tab.live_mask()).astype(np.int64)
    if not spec:
        return live
    composite, radix = None, 1
    for codes, key_radix in _sort_keys(db, table_name, live, spec):
        composite, radix = _fold(composite, radix, codes, key_radix)
    return live[np.argsort(composite, kind="stable")]


def compact_database(db: Database, table_name: str, store=None) -> dict:
    """Run the full compaction job on *table_name*; see module docstring.

    Returns ``{"table", "rows", "dropped", "clustered", "summaries"}``:
    the post-compaction row count, how many dead slots were reclaimed,
    whether a clustering spec was applied, and how many block summaries
    were rebuilt (0 when no *store* was supplied).
    """
    from .statistics import rebuild_zone_maps

    tab = db.table(table_name)
    dropped = tab.num_rows - tab.num_live
    spec = db.clustering.get(table_name)
    order: Optional[np.ndarray] = (
        clustering_sort_order(db, table_name, spec) if spec else None)
    db.consolidate(table_name, order=order)
    summaries = rebuild_zone_maps(db, table_name, store) if store is not None else 0
    return {
        "table": table_name,
        "rows": tab.num_rows,
        "dropped": dropped,
        "clustered": bool(spec),
        "summaries": summaries,
    }
