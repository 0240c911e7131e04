"""Clustering-preserving compaction: the maintenance re-sort job.

Streaming appends land rows wherever slot reuse puts them and MVCC churn
leaves deleted slots behind, so the hierarchically clustered layout the
loader produced — the layout that makes block summaries (zone maps and
code sets, :mod:`repro.core.statistics`) selective — decays over time.
``astore compact`` (and the serve layer's ``{"compact": table}`` admin
verb) runs :func:`compact_database`:

1. compute the live rows' positions in the table's declared
   :attr:`~repro.core.schema.Database.clustering` order (value order,
   resolving parent-table attributes through one AIR hop);
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

from typing import Optional

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


def _resolve_key(db: Database, table_name: str, live: np.ndarray,
                 item: str) -> np.ndarray:
    """One clustering-spec entry (``"table.column"``) as per-live-row keys."""
    tab = db.table(table_name)
    tname, _, cname = item.partition(".")
    if not cname:
        raise SchemaError(f"clustering key {item!r} must be 'table.column'")
    if tname == table_name:
        column = tab[cname]
        if isinstance(column, AIRColumn):
            # positions order by parent storage; sort by the declared
            # parent key's value order when one is known
            positions = np.asarray(column.values())[live]
            ref = db.reference_for(table_name, cname)
            if ref is not None and ref.parent_key is not None:
                return _row_keys(db.table(ref.parent_table)[ref.parent_key],
                                 positions)
            return positions
        return _row_keys(column, live)
    for ref in db.outgoing(table_name):
        if ref.parent_table != tname:
            continue
        air = tab[ref.child_column]
        if not isinstance(air, AIRColumn):
            raise SchemaError(
                f"clustering key {item!r} needs the AIR reference "
                f"{table_name}.{ref.child_column} -> {tname}")
        positions = np.asarray(air.values())[live]
        return _row_keys(db.table(tname)[cname], positions)
    raise SchemaError(
        f"clustering key {item!r} is not reachable from {table_name!r}")


def clustering_sort_order(db: Database, table_name: str,
                          spec) -> np.ndarray:
    """The live rows of *table_name* ordered by the clustering *spec*.

    *spec* is a sequence of ``"table.column"`` keys, outermost first.
    Returns physical positions suitable for
    :meth:`~repro.core.schema.Database.consolidate`'s ``order``.
    """
    tab = db.table(table_name)
    live = np.flatnonzero(tab.live_mask()).astype(np.int64)
    if not spec:
        return live
    keys = [_resolve_key(db, table_name, live, item) for item in spec]
    # np.lexsort sorts by its LAST key first; spec is outermost-first
    return live[np.lexsort(tuple(reversed(keys)))]


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
