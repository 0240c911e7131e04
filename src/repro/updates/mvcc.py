"""Update handling and snapshot isolation (Section 4.4 of the paper).

A-Store handles updates with append insertion, lazy deletion bit vectors,
and in-place updates; OLAP queries run against MVCC snapshots so
real-time analytics sees a consistent version while writers proceed.
The paper also lets an insert reuse a deleted slot; here inserts always
append at the tail (see :mod:`repro.core.table`), so no tuple a snapshot
can see is overwritten before consolidation, and a snapshot needs no
pin.  The paper sketches Hyper-style copy-on-write MVCC; this
implementation versions insertions and deletions explicitly (per-slot
insert/delete versions on :class:`~repro.core.Table`), which gives the
same reader guarantees for the OLAP-relevant operations.

In-place attribute updates are *not* versioned (the paper updates in place
precisely to avoid touching foreign keys); snapshot readers of an updated
measure see the newest value.  This matches A-Store's design point:
deletion/insertion visibility is what aggregation correctness needs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..core import Database
from ..core.column import AIRColumn
from ..errors import UpdateError


class TransactionManager:
    """Versioned writes over a database whose tables use ``mvcc=True``.

    Every mutating call commits atomically under a fresh version number;
    :meth:`snapshot` returns a version that OLAP queries can pass to
    :meth:`~repro.engine.AStoreEngine.query` for repeatable reads.
    """

    def __init__(self, db: Database):
        self.db = db
        self._version = 0

    @property
    def current_version(self) -> int:
        """The last committed version."""
        return self._version

    def snapshot(self) -> int:
        """A snapshot token covering everything committed so far.

        Inserts never overwrite a slot, so queries at the snapshot stay
        exact until a consolidation drops the rows deleted since.
        """
        return self._version

    def release(self, snapshot: int) -> None:
        """Done with *snapshot*.  A snapshot holds nothing (no slot is
        recycled while it lives), so this does nothing; it is kept so
        that callers can scope a snapshot explicitly."""

    def _next(self) -> int:
        self._version += 1
        return self._version

    # -- write operations -------------------------------------------------------

    def insert(self, table_name: str, rows: Mapping[str, Sequence]) -> np.ndarray:
        """Append rows at the table's tail; returns their positions."""
        table = self.db.table(table_name)
        version = self._next()
        try:
            return table.insert(rows, version=version)
        except Exception:
            self._version -= 1
            raise

    def delete(self, table_name: str, positions: Iterable[int],
               check_references: bool = False) -> int:
        """Lazily delete rows; optionally enforce the FK constraint.

        With ``check_references=True``, deletion of a dimension row still
        referenced by a live child row raises :class:`UpdateError` — the
        reference constraint the paper relies on ("we normally do not
        delete dimensional tuples ... due to the reference constraint").
        """
        positions = np.asarray(list(positions) if not isinstance(positions, np.ndarray)
                               else positions, dtype=np.int64)
        if check_references:
            self._assert_unreferenced(table_name, positions)
        version = self._next()
        try:
            return self.db.table(table_name).delete(positions, version=version)
        except Exception:
            self._version -= 1
            raise

    def update(self, table_name: str, positions: Iterable[int],
               changes: Mapping[str, Sequence]) -> None:
        """In-place update (never touches foreign keys pointing here)."""
        table = self.db.table(table_name)
        for name in changes:
            if isinstance(table[name], AIRColumn):
                raise UpdateError(
                    f"refusing to update AIR column {table_name}.{name}; "
                    "repoint references explicitly instead"
                )
        self._next()
        try:
            table.update(positions, changes)
        except Exception:
            self._version -= 1
            raise

    def consolidate(self, table_name: str) -> np.ndarray:
        """Compact a table and rewrite incoming AIR references.

        The expensive maintenance operation of the paper's Table 1 — run
        it when the system is idle.  Returns the old→new mapping.
        """
        self._next()
        return self.db.consolidate(table_name)

    # -- constraint checking -------------------------------------------------------

    def _assert_unreferenced(self, table_name: str,
                             positions: np.ndarray) -> None:
        if len(positions) == 0:
            return
        targets = set(int(p) for p in positions)
        for ref in self.db.incoming(table_name):
            child = self.db.table(ref.child_table)
            column = child[ref.child_column]
            if not isinstance(column, AIRColumn):
                continue
            live = child.live_mask()
            referenced = column.values()[live]
            hits = np.isin(referenced, positions)
            if hits.any():
                bad = int(referenced[hits][0])
                raise UpdateError(
                    f"cannot delete {table_name}[{bad}]: still referenced "
                    f"by live rows of {ref.child_table}"
                )
        del targets


class WriteBatch:
    """Group several writes under one version (a mini-transaction).

    Usage::

        with WriteBatch(manager) as batch:
            batch.insert("lineorder", rows)
            batch.delete("lineorder", [0, 1])

    All operations in the batch share a single commit version, so a
    snapshot taken before the batch sees none of them and a snapshot taken
    after sees all of them.  There is no rollback (the paper's update
    model has none); an exception aborts subsequent operations but already
    applied ones remain, mirroring the sketch in Section 4.4.
    """

    def __init__(self, manager: TransactionManager):
        self._manager = manager
        self._version: Optional[int] = None

    def __enter__(self) -> "WriteBatch":
        self._version = self._manager._next()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._version = None

    def _require_open(self) -> int:
        if self._version is None:
            raise UpdateError("WriteBatch used outside its context")
        return self._version

    def insert(self, table_name: str, rows: Mapping[str, Sequence]) -> np.ndarray:
        version = self._require_open()
        return self._manager.db.table(table_name).insert(rows,
                                                         version=version)

    def delete(self, table_name: str, positions: Iterable[int]) -> int:
        version = self._require_open()
        return self._manager.db.table(table_name).delete(positions,
                                                         version=version)

    def update(self, table_name: str, positions: Iterable[int],
               changes: Mapping[str, Sequence]) -> None:
        self._require_open()
        self._manager.db.table(table_name).update(positions, changes)
