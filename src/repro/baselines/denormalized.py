"""Fully materialized denormalization (the paper's ``*_D`` variants and the
hand-coded "Denormalization" column of Table 5).

:func:`materialize_universal` joins an AIR-loaded star/snowflake database
into one wide table; any engine can then run the rewritten single-table
queries on it.  Dictionary-compressed dimension columns keep their
dictionaries (only the code arrays are widened), matching WideTable-style
denormalization; the footprint blow-up reported in the paper's Section 6.2
is measured from the returned database's ``nbytes``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import Database, Table
from ..core.column import AIRColumn, DictColumn, FixedColumn, StringColumn
from ..engine.executor import AStoreEngine, EngineOptions
from ..engine.result import QueryResult
from ..errors import SchemaError
from ..workloads.ssb_queries import denormalize_query


def materialize_universal(db: Database, root: Optional[str] = None,
                          table_name: str = "universal",
                          snapshot: Optional[int] = None) -> Database:
    """Join every reference path of *db* into one wide table.

    *db* must be AIR-loaded (``db.airify()``): the gathers that build the
    wide columns are positional.  Foreign-key (AIR) columns are dropped —
    a denormalized table has no use for them — and dimension key columns
    are kept (queries may still filter on them).  The wide table keeps
    the root's row count, and a root row that is not visible — deleted,
    or invisible at the MVCC *snapshot* — is deleted from it.
    """
    roots = [root] if root is not None else db.roots()
    if len(roots) != 1:
        raise SchemaError(
            f"need exactly one root table to denormalize, found {roots}")
    root_name = roots[0]
    paths = db.reference_paths(root_name)

    from ..engine.slice import universal_provider

    provider = universal_provider(db, root_name, paths)
    universal = Table(table_name)

    def add(table: str, source_name: str) -> None:
        column = db.table(table)[source_name]
        if isinstance(column, AIRColumn):
            return
        name = source_name
        if name in universal.columns:
            name = f"{table}_{source_name}"
        positions = provider.positions_for(table)
        if isinstance(column, DictColumn):
            codes = (column.codes() if positions is None
                     else column.take_codes(positions))
            universal.add_column(
                DictColumn(name, dictionary=column.dictionary, codes=codes))
        elif isinstance(column, StringColumn):
            values = (column.values() if positions is None
                      else column.take(positions))
            universal.add_column(StringColumn(name, values=list(values)))
        else:
            values = (column.values() if positions is None
                      else column.take(positions))
            universal.add_column(FixedColumn(name, column.dtype, data=values))

    for source_name in db.table(root_name).column_names:
        add(root_name, source_name)
    for path in paths:
        leaf = path.leaf
        for source_name in db.table(leaf).column_names:
            add(leaf, source_name)
    universal.delete(np.flatnonzero(~db.table(root_name).live_mask(snapshot)))

    wide = Database(f"{db.name}_denormalized")
    wide.add_table(universal)
    return wide


class DenormalizedEngine:
    """A-Store's scan machinery over a fully materialized universal table.

    This is the paper's hand-coded denormalization comparison point: the
    same vectorized scan, selection vectors, dictionary compression, and
    array aggregation — but reading a real wide table instead of following
    AIR references.  Pass normalized SSB SQL; it is rewritten with
    :func:`~repro.workloads.ssb_queries.denormalize_query` automatically.
    With *snapshot*, the wide table holds the root rows visible at that
    MVCC snapshot (the oracle for snapshot reads).
    """

    name = "denormalized"

    def __init__(self, db: Database, options: Optional[EngineOptions] = None,
                 already_wide: bool = False, snapshot: Optional[int] = None):
        self.source = db
        self.wide = (db if already_wide
                     else materialize_universal(db, snapshot=snapshot))
        opts = options or EngineOptions(variant_name="Denormalization")
        self._engine = AStoreEngine(self.wide, opts)

    @property
    def nbytes(self) -> int:
        """Footprint of the materialized universal table."""
        return self.wide.nbytes

    def query(self, query) -> QueryResult:
        """Execute a (normalized or already-rewritten) SSB-style query."""
        rewritten = denormalize_query(query, self.source)
        return self._engine.query(rewritten)

    def close(self) -> None:
        """Release the wrapped engine's process-backend resources."""
        self._engine.close()
