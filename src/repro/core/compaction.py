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
   sort of a composite key the spec's keys fold into, packed with the
   row numbers — exactly the ``np.lexsort`` order, see
   :func:`composite_sort_order`,
   which the SSB generator also uses to lay out its fresh load;
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

import itertools
from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import SchemaError
from .column import AIRColumn, DictColumn, empty_buffer, narrowed, take_at
from .schema import Database

#: rows per slice where a row-number array would otherwise be staged
_SLICE = 1 << 16


def _row_keys(column) -> np.ndarray:
    """Value-ordered sort keys for every row of *column* (possibly a
    view of the column itself: read it, never write it).

    Dict-coded columns must not sort by their (insertion-ordered) codes:
    the key is each row's rank in dictionary *value* order.  Any other
    non-numeric column is rank-encoded the same way via ``np.unique``.
    """
    if isinstance(column, DictColumn):
        dictionary = np.asarray(column.dictionary.values, dtype=object)
        rank = np.empty(len(dictionary), dtype=np.int64)
        rank[np.argsort(dictionary, kind="stable")] = np.arange(len(dictionary))
        return rank[np.asarray(column.codes())]
    values = np.asarray(column.values())
    if values.dtype.kind == "O":
        return np.unique(values, return_inverse=True)[1]
    return values


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


def _sort_keys(db: Database, table_name: str, spec):
    """The spec's sort keys at every row, outermost first, one at a
    time (for :func:`composite_sort_order`).

    A key read through an AIR column is encoded over the parent's rows
    and then gathered, so its rank comes from the small parent array.
    Consecutive keys read through the same AIR column (a dimension
    hierarchy such as mfgr > category > brand) fold over the parent's
    rows (:func:`_composite_key`) and are densely ranked there, so the
    fact table gathers one combined key instead of one per level — the
    same order, since the rank is order-preserving and injective on the
    level tuple."""
    tab = db.table(table_name)
    routes = [_key_route(db, table_name, item) for item in spec]
    start = 0
    while start < len(routes):
        air, column = routes[start]
        stop = start + 1
        if air is None:
            yield _row_keys(column)
            start = stop
            continue
        while stop < len(routes) and routes[stop][0] == air:
            stop += 1
        parent, _ = _composite_key(_row_keys(level)
                                  for _, level in routes[start:stop])
        if stop - start > 1:
            parent = np.unique(parent, return_inverse=True)[1]
        # the narrowest signed dtype that holds the codes: the fact-side
        # gather and the fold read fewer bytes
        parent = parent.astype(
            np.min_scalar_type(-int(parent.max(initial=0)) - 1))
        yield take_at(parent, tab[air].values())
        start = stop


#: Folded composites stay below this bound, so ``composite * radix +
#: code`` never overflows int64.
_COMPOSITE_LIMIT = 1 << 62


def _dense_codes(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving codes ``0 .. radix-1`` for *keys* and their
    radix: an integer key offset by its minimum when its span is small
    enough to fold (*keys* itself, in its own dtype, when its minimum is
    0), any other key ranked by ``np.unique`` (which orders like a sort,
    NaNs last and equal)."""
    if keys.dtype.kind == "i" and len(keys):
        lo, hi = int(keys.min()), int(keys.max())
        if hi - lo < _COMPOSITE_LIMIT:
            if lo:
                keys = np.subtract(keys, lo, dtype=np.int64,
                                   out=empty_buffer(len(keys), np.int64))
            return keys, hi - lo + 1
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


def _composite_key(keys: Iterable[np.ndarray]) -> Tuple[np.ndarray, int]:
    """Fold raw sort *keys* (equal-length arrays, outermost first) into
    one int64 composite and its radix.

    Each key is offset to ``0 .. radix-1`` (or ranked, see
    :func:`_dense_codes`) and the running composite is scaled by that
    radix, re-ranked when the next radix would overflow.  The encoding
    is order-preserving and injective on key tuples.  *keys* may be a
    generator: at most the composite and one key are alive at a time.
    """
    composite, radix = None, 1
    for key in keys:
        key = np.asarray(key)
        codes, key_radix = _dense_codes(key)
        if composite is None and codes is key:
            # the composite is scaled in place, never in the caller's key
            codes = empty_buffer(len(key), np.int64)
            codes[:] = key
        composite, radix = _fold(composite, radix, codes, key_radix)
    if composite is None:
        raise ValueError("a composite key needs at least one key")
    return composite, radix


def composite_sort_order(keys: Iterable[np.ndarray]) -> np.ndarray:
    """The stable permutation ordering rows by *keys*, outermost first:
    exactly ``np.lexsort(keys[::-1])``.  The generator's load order and
    compaction's re-sort both come from here.

    The keys fold into one :func:`_composite_key`, which is packed with
    each row's position as ``composite << bits | row`` (``bits`` holds
    the largest row number), sorted in place by NumPy's default sort and
    masked back to the rows.  Packed keys are unique, so any sort gives
    the stable order; a composite too wide to pack is first re-ranked
    to its dense ranks, which fit whenever the row count does."""
    composite, radix = _composite_key(keys)
    bits = max(len(composite) - 1, 0).bit_length()
    if radix << bits > 1 << 63:
        composite = np.unique(composite, return_inverse=True)[1].astype(
            np.int64, copy=False)
    composite <<= bits
    for start in range(0, len(composite), _SLICE):
        stop = min(start + _SLICE, len(composite))
        composite[start:stop] |= np.arange(start, stop, dtype=np.int64)
    composite.sort()
    composite &= (1 << bits) - 1
    return composite


def clustering_sort_order(db: Database, table_name: str,
                          spec) -> np.ndarray:
    """The live rows of *table_name* ordered by the clustering *spec*.

    *spec* is a sequence of ``"table.column"`` keys, outermost first.
    Returns physical positions suitable for
    :meth:`~repro.core.schema.Database.consolidate`'s ``order``: the
    spec's keys in value order, resolved one at a time, through
    :func:`composite_sort_order`.  The keys are read at every row, with
    deleted rows sorted last behind an outermost key and cut off, so no
    live-row index is gathered.  The order is int32 when the rows fit:
    the consolidation holds it next to each fact-sized column it
    gathers and next to the position mapping.
    """
    live = db.table(table_name).live_mask()
    if not spec:
        return np.flatnonzero(live)
    num_live = int(np.count_nonzero(live))
    keys = _sort_keys(db, table_name, spec)
    if num_live < len(live):
        keys = itertools.chain([(~live).view(np.int8)], keys)
    order = composite_sort_order(keys)
    if len(live) > np.iinfo(np.int32).max:
        return order[:num_live]
    return narrowed(order, num_live, np.int32)


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
