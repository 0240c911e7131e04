"""The array-family table (Sections 2 and 4.4 of the paper).

A table is a set of equal-length, fully aligned arrays — one per column.
The array index is the implicit primary key: tuple *i* is the *i*-th element
of every array.  Update handling follows the paper:

* **insertion** appends into reserved tail capacity, always at the tail;
* **deletion** is lazy — a deletion bit vector marks tuples out-of-date, and
  a deleted slot stays dead until consolidation reclaims it;
* **update** is in-place (varchar updates only relocate heap addresses);
* **consolidation** compacts the arrays and returns the old→new position
  mapping so the catalog can rewrite incoming AIR references.

Every mutation bumps the table's ``mutation_count`` stamp — the
freshness test of every cache tier — and records what it touched in a
bounded **mutation journal** (:meth:`Table.journal_since`).  Three
consumers read it: block summaries re-summarise only the blocks and
columns a write touched instead of rebuilding the whole table; prune
verdicts re-verdict only the blocks where a write touched a checked
column; and cached plans outlive a write that touched no column they
encode (the query cache's plan-tier bridge).

The paper also lets an insert take the slot of a deleted tuple.  Here
inserts never do: a reused slot drops an arbitrary row into a block the
load clustered (by year, by part), and every block it lands in loses its
exact zone and code-set summary, so a date-band query that skipped most
blocks falls back to a full scan.  Appending at the tail dirties only
the tail blocks; :meth:`repro.core.schema.Database.compact` reclaims the
dead slots and keeps the clustering.

Optionally the table tracks per-slot insert/delete versions for MVCC
snapshot reads (Section 4.4's real-time analytics scenario).  No slot is
ever recycled before consolidation, so a snapshot read needs no pin.

Every fixed-width buffer — column data, AIR positions, dictionary codes,
string addresses, deletion bits and version vectors — may be a read-only
view of an exported database image: a process-sharded coordinator
*adopts* the image it exported as its storage (:meth:`Table.adopt`), so
the host holds the data once.  Writes copy such a buffer into private
memory first (copy on first write), so they touch only the buffers they
change and never the image that shard readers share.  Private buffers
come from :func:`repro.core.column.empty_buffer`, so a buffer a write or
a consolidation replaces goes back to the operating system with its last
view; the bookkeeping vectors keep growth capacity like the columns, so
an append at the tail writes O(batch), not O(table).  A per-table write
lock serialises every in-place mutator with the adoption's
check-and-swap: a write racing an export either lands before the swap
(and the stale table is not adopted) or after it (and copies first).
"""

from __future__ import annotations

import threading
from typing import (Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import SchemaError, StorageError
from .bitmap import Bitmap
from .column import (_GROWTH_FACTOR, _MIN_CAPACITY, Column, empty_buffer,
                     gather_into, make_column, private_copy)
from .types import reference_type

_NO_DELETE = np.iinfo(np.int64).max

#: rows per slice where a row-number array would otherwise be staged
_SLICE = 1 << 16

#: Each bookkeeping vector and the value a fresh slot starts with.
_BOOKKEEPING = (("_deleted", bool, False), ("_insert_version", np.int64, 0),
                ("_delete_version", np.int64, _NO_DELETE))

#: Journal bounds: past either, the oldest entries fall off and the
#: floor rises, so summaries built before it take a full rebuild.
JOURNAL_MAX_ENTRIES = 64
JOURNAL_MAX_POSITIONS = 1 << 20

#: Lock contract, machine-checked by ``astore lint`` (lock-discipline):
#: the stamp is read and bumped only under the table's write lock, which
#: every in-place mutator and :meth:`Table.adopt` hold throughout, so a
#: stamp read sees a whole write and the adoption's stamp check and
#: buffer swap are one step.
GUARDED_BY = {"Table._mutation_count": "self._write_lock",
              "Table._visible": "self._write_lock"}


class JournalEntry(NamedTuple):
    """One stamped mutation: what it touched, at which physical rows.

    ``count`` is the table's ``mutation_count`` after the mutation;
    ``columns`` the columns whose values changed (none for a delete,
    which only flips deletion bits)."""

    count: int
    columns: FrozenSet[str]
    positions: np.ndarray


class Table:
    """A named array family with tail appends, lazy deletion, and MVCC."""

    def __init__(self, name: str, mvcc: bool = False):
        self.name = name
        self.columns: Dict[str, Column] = {}
        self._nrows = 0
        self._deleted = np.zeros(0, dtype=bool)
        self._mvcc = mvcc
        self._insert_version = np.zeros(0, dtype=np.int64)
        self._delete_version = np.zeros(0, dtype=np.int64)
        self._mutation_count = 0
        self._write_lock = threading.Lock()
        #: ``(floor, entries)``: every mutation after stamp ``floor`` is
        #: in ``entries``.  Swapped whole on write, never mutated in
        #: place, so readers need no lock.
        self._journal: Tuple[int, Tuple[JournalEntry, ...]] = (0, ())
        #: ``(stamp, has_deletes, live mask or None)``: the visibility of
        #: the rows now, computed once per stamp (:meth:`_visibility`)
        self._visible: Optional[tuple] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_arrays(cls, name: str, data: Mapping[str, Sequence],
                    dict_threshold: float = 0.1, mvcc: bool = False) -> "Table":
        """Build a table from ``{column_name: values}`` in one shot.

        Column layouts are chosen per column by
        :func:`repro.core.column.make_column`.
        """
        table = cls(name, mvcc=mvcc)
        nrows = None
        for col_name, values in data.items():
            column = make_column(col_name, values, dict_threshold=dict_threshold)
            if nrows is None:
                nrows = len(column)
            elif len(column) != nrows:
                raise SchemaError(
                    f"column {col_name!r} has {len(column)} rows, expected {nrows}"
                )
            table.columns[col_name] = column
        table._nrows = nrows or 0
        table._fresh_bookkeeping()
        return table

    @classmethod
    def wrap(cls, name: str, columns: Iterable[Column], num_rows: int,
             deleted: Optional[np.ndarray] = None,
             insert_version: Optional[np.ndarray] = None,
             delete_version: Optional[np.ndarray] = None) -> "Table":
        """A table over prebuilt columns and bookkeeping vectors, adopted
        as they are: no copy and no O(rows) allocation (the image and
        arena rebuild).  It tracks MVCC versions when *insert_version*
        and *delete_version* are given.  Without *deleted*, a fresh
        deletion vector marks every row live (a generator's load)."""
        table = cls(name, mvcc=insert_version is not None)
        for column in columns:
            if len(column) != num_rows:
                raise SchemaError(
                    f"column {column.name!r} has {len(column)} rows, "
                    f"table {name!r} has {num_rows}")
            table.columns[column.name] = column
        table._nrows = num_rows
        table._deleted = (_filled(num_rows, bool, False) if deleted is None
                          else deleted)
        if table._mvcc:
            table._insert_version = insert_version
            table._delete_version = delete_version
        return table

    def add_column(self, column: Column) -> None:
        """Attach a prebuilt column; its length must match the table."""
        with self._write_lock:
            if self._nrows and len(column) != self._nrows:
                raise SchemaError(
                    f"column {column.name!r} has {len(column)} rows, "
                    f"table {self.name!r} has {self._nrows}"
                )
            if not self.columns:
                self._nrows = len(column)
                self._fresh_bookkeeping()
            self.columns[column.name] = column
            # a schema change is a mutation: every cache tier keyed on
            # this table must revalidate, same as replace_column
            self._mutation_count += 1
            self._journal_barrier()

    def replace_column(self, name: str, column: Column) -> None:
        """Swap a column implementation (used by the AIR loader)."""
        with self._write_lock:
            if name not in self.columns:
                raise SchemaError(f"no column {name!r} in table {self.name!r}")
            if len(column) != self._nrows:
                raise SchemaError("replacement column length mismatch")
            self.columns[name] = column
            self._mutation_count += 1
            self._journal_barrier()

    def adopt(self, image: "Table", expected_count: int) -> bool:
        """Take *image*'s buffers as this table's storage, if the table
        is still at stamp *expected_count*.

        *image* is this table as exported at that stamp and rebuilt over
        a read-only mapping of the image (``attach_database``).  Every
        fixed-width buffer — column data, AIR positions, dictionary
        codes, string addresses, deletion bits, MVCC versions — becomes
        a view of the image and the private arrays go; the dictionaries
        and string heaps stay private.  The content does
        not change, so neither does the stamp, and every cache entry
        stays fresh.  Under the write lock, a write either lands first
        (the stamp moved: nothing is adopted, ``False``) or after the
        swap, copying the buffers it writes."""
        with self._write_lock:
            if self._mutation_count != expected_count:
                return False
            for name, column in self.columns.items():
                column.share(image.columns[name])
            self._share_bookkeeping(image)
            # the memo's mask is a private copy: let it go with the rest
            self._visible = None
            return True

    def _share_bookkeeping(self, image: "Table") -> None:
        """The bookkeeping half of :meth:`adopt` (a storage swap, not a
        content mutation: the stamp stays)."""
        self._deleted = image._deleted
        if self._mvcc:
            self._insert_version = image._insert_version
            self._delete_version = image._delete_version

    @property
    def mutation_count(self) -> int:
        """Monotonic count of content mutations (inserts, deletes,
        updates, consolidations, column swaps) — lets point-in-time
        copies such as exported database images detect staleness."""
        with self._write_lock:
            return self._mutation_count

    def journal_since(self, count: int,
                      upto: int) -> Optional[Tuple[JournalEntry, ...]]:
        """The journal entries of the mutations after stamp *count* up
        to stamp *upto*, or ``None`` when the journal cannot account for
        every one of them (a barrier — consolidation or a column swap —
        intervened, or older entries fell off the bounded journal)."""
        floor, entries = self._journal
        if count < floor or upto < count:
            return None
        since = tuple(e for e in entries if count < e.count <= upto)
        return since if len(since) == upto - count else None

    def _journal_write(self, columns: Iterable[str],  # astore: holds[self._write_lock]
                       positions: np.ndarray) -> None:
        """Journal the mutation that just bumped the stamp."""
        floor, entries = self._journal
        entries += (JournalEntry(self._mutation_count, frozenset(columns),
                                 np.array(positions, dtype=np.int64)),)
        total = sum(len(e.positions) for e in entries)
        while entries and (len(entries) > JOURNAL_MAX_ENTRIES
                           or total > JOURNAL_MAX_POSITIONS):
            floor = entries[0].count
            total -= len(entries[0].positions)
            entries = entries[1:]
        self._journal = (floor, entries)

    def _journal_barrier(self) -> None:  # astore: holds[self._write_lock]
        """Restart the journal at the current stamp: the mutation that
        just bumped it cannot be expressed as touched rows."""
        self._journal = (self._mutation_count, ())

    # -- shape ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Physical rows, including deleted-but-unreclaimed slots."""
        return self._nrows

    @property
    def num_live(self) -> int:
        """Rows not marked deleted."""
        return self._nrows - int(self._deleted.sum())

    def __len__(self) -> int:
        return self._nrows

    def __contains__(self, column_name: str) -> bool:
        return column_name in self.columns

    def __getitem__(self, column_name: str) -> Column:
        try:
            return self.columns[column_name]
        except KeyError:
            raise SchemaError(
                f"no column {column_name!r} in table {self.name!r}"
            ) from None

    @property
    def column_names(self) -> list[str]:
        """Column names in definition order."""
        return list(self.columns)

    @property
    def nbytes(self) -> int:
        """Written bytes of all columns plus bookkeeping vectors (one
        slot per row each; reserved growth capacity is not counted)."""
        total = sum(col.nbytes for col in self.columns.values())
        total += self._deleted.nbytes
        if self._mvcc:
            total += self._insert_version.nbytes + self._delete_version.nbytes
        return total

    # -- visibility ------------------------------------------------------------

    @property
    def has_deletes(self) -> bool:
        """True if any slot is currently marked deleted."""
        with self._write_lock:
            return self._visibility(False)[0]

    def deletion_vector(self) -> Bitmap:
        """The lazy-deletion bit vector (1 = deleted/out-of-date)."""
        return Bitmap.from_bool_array(self._deleted)

    def live_mask(self, snapshot: Optional[int] = None) -> np.ndarray:
        """Boolean mask of rows visible now, or at an MVCC *snapshot*.

        A row is visible at snapshot *s* iff it was inserted at or before
        *s* and not deleted at or before *s*.  The mask of the rows
        visible now is computed once per stamp and shared: it is
        read-only.
        """
        if snapshot is None:
            with self._write_lock:
                return self._visibility(True)[1]
        if not self._mvcc:
            raise StorageError(
                f"table {self.name!r} was not created with mvcc=True"
            )
        return (self._insert_version <= snapshot) & (self._delete_version > snapshot)

    def _visibility(self, mask: bool) -> tuple:  # astore: holds[self._write_lock]
        """``(has_deletes, live mask)`` at the current stamp, each
        computed at most once per stamp (the mask only when *mask* asks
        for it, ``None`` until then)."""
        memo = self._visible
        if memo is None or memo[0] != self._mutation_count:
            memo = (self._mutation_count, bool(self._deleted.any()), None)
        if mask and memo[2] is None:
            live = np.logical_not(self._deleted,
                                  out=empty_buffer(self._nrows, bool))
            live.flags.writeable = False
            memo = memo[:2] + (live,)
        self._visible = memo
        return memo[1:]

    # -- updates ---------------------------------------------------------------

    def insert(self, rows: Mapping[str, Sequence], version: int = 0) -> np.ndarray:
        """Append rows at the tail of the table.

        *rows* maps every column name to an equal-length sequence of values.
        Returns the array indexes (primary keys) assigned to the new rows:
        always ``num_rows`` onwards.  A deleted slot is never reused
        (see the module docstring); consolidation reclaims it.
        """
        if set(rows) != set(self.columns):
            raise SchemaError(
                f"insert must provide exactly the columns of {self.name!r}: "
                f"expected {sorted(self.columns)}, got {sorted(rows)}"
            )
        counts = {len(v) for v in rows.values()}
        if len(counts) != 1:
            raise SchemaError("insert column value lengths differ")
        n = counts.pop()
        if n == 0:
            return np.empty(0, dtype=np.int64)

        with self._write_lock:
            for name, values in rows.items():
                self.columns[name].append(values)
            positions = np.arange(self._nrows, self._nrows + n, dtype=np.int64)
            self._nrows += n
            # the new slots start live and never deleted
            self._grow_bookkeeping()
            if self._mvcc:
                self._insert_version[positions[0]:] = version
            self._mutation_count += 1
            self._journal_write(self.columns, positions)
            return positions

    def delete(self, positions: Iterable[int], version: int = 0) -> int:
        """Lazily delete rows: set their deletion bits.  The slots stay
        dead until :meth:`consolidate` drops them.

        Returns the number of newly deleted rows (already-deleted and
        repeated positions are ignored, making deletion idempotent).
        """
        # deduplicated by a sort: NumPy 2.4's hashing np.unique maps
        # ~1.6 MB on its first call in a process
        positions = np.sort(self._checked_positions(positions, "delete"))
        positions = positions[np.diff(positions, prepend=-1) != 0]
        with self._write_lock:
            fresh = positions[~self._deleted[positions]]
            if not len(fresh):
                return 0
            self._own_bookkeeping("_deleted", "_delete_version")
            self._deleted[fresh] = True
            if self._mvcc:
                self._delete_version[fresh] = version
            self._mutation_count += 1
            self._journal_write((), fresh)
            return len(fresh)

    def update(self, positions: Iterable[int], changes: Mapping[str, Sequence]) -> None:
        """In-place update of the given columns at the given positions."""
        positions = self._checked_positions(positions, "update")
        with self._write_lock:
            if len(positions) and bool(self._deleted[positions].any()):
                raise StorageError("cannot update a deleted row")
            for name, values in changes.items():
                self[name].put(positions, values)
            if len(positions) and changes:
                self._mutation_count += 1
                self._journal_write(changes, positions)

    def _checked_positions(self, positions: Iterable[int], verb: str) -> np.ndarray:
        positions = np.asarray(list(positions) if not isinstance(positions, np.ndarray)
                               else positions, dtype=np.int64)
        if len(positions) and (positions.min() < 0 or positions.max() >= self._nrows):
            raise StorageError(f"{verb} position out of range")
        return positions

    def consolidate(self, order: Optional[np.ndarray] = None) -> np.ndarray:
        """Compact the table, dropping deleted slots.

        With *order* — an array of live positions covering every live row
        exactly once — the surviving rows are additionally laid out in
        that physical order (the clustering-preserving re-sort behind
        ``astore compact``); without it, live rows keep their relative
        order.  Returns the old→new position mapping (length = old
        ``num_rows``; -1 for slots that were deleted), at the width of
        an AIR column into the table.  The caller must
        rewrite every AIR column referencing this table using the mapping
        — that rewrite is what makes consolidation expensive (see the
        paper's Table 1), and
        :meth:`repro.core.schema.Database.consolidate` performs it.
        """
        with self._write_lock:
            if order is None:
                order = np.flatnonzero(~self._deleted)
            else:
                # an integer order keeps its width (compaction's is int32
                # when the rows fit); every use below goes a slice at a time
                order = np.asarray(order)
                if order.dtype.kind not in "iu":
                    order = order.astype(np.int64)
                if len(order) and (order.min() < 0
                                   or order.max() >= self._nrows):
                    raise StorageError("consolidate order out of range")
                # live, and as many distinct rows as are live: all of them
                listed = np.zeros(self._nrows, dtype=bool)
                for start in range(0, len(order), _SLICE):
                    listed[order[start:start + _SLICE]] = True
                if (len(order) != self.num_live
                        or np.count_nonzero(listed) != len(order)
                        or bool((listed & self._deleted).any())):
                    raise StorageError(
                        "consolidate order must list exactly the live rows")
                del listed
            # each column is gathered into a fresh buffer (readers of
            # the old one keep the old layout), one column at a time
            for column in self.columns.values():
                column.reorder(order)
            # at the width of the AIR columns it rewrites
            mapping = _filled(self._nrows,
                              reference_type(self._nrows).numpy_dtype, -1)
            for start in range(0, len(order), _SLICE):
                stop = min(start + _SLICE, len(order))
                mapping[order[start:stop]] = np.arange(start, stop)
            self._nrows = len(order)
            self._deleted = _filled(self._nrows, bool, False)
            if self._mvcc:
                for name in ("_insert_version", "_delete_version"):
                    vector = getattr(self, name)
                    setattr(self, name, gather_into(
                        vector, order,
                        empty_buffer(self._nrows, vector.dtype)))
            self._mutation_count += 1
            self._journal_barrier()
            return mapping

    # -- row access ---------------------------------------------------------

    def row(self, position: int) -> dict:
        """Materialize one tuple as ``{column: value}`` (debug/convenience)."""
        if not 0 <= position < self._nrows:
            raise StorageError(f"row {position} out of range")
        return {name: col.get(position) for name, col in self.columns.items()}

    def gather(self, positions: np.ndarray,
               columns: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Positional gather of several columns at once."""
        names = list(columns) if columns is not None else self.column_names
        return {name: self[name].take(positions) for name in names}

    def _own_bookkeeping(self, *names: str) -> None:
        """Copy each named bookkeeping vector that is a read-only image
        view into private memory before a write (copy on first write)."""
        for name in names:
            array = getattr(self, name)
            if not array.flags.writeable:
                setattr(self, name, private_copy(array))

    def _bookkeeping(self):
        """``(name, dtype, fill)`` of each vector this table keeps."""
        return _BOOKKEEPING if self._mvcc else _BOOKKEEPING[:1]

    def _fresh_bookkeeping(self) -> None:
        """Every slot live, inserted at version 0 and never deleted."""
        for name, dtype, fill in self._bookkeeping():
            setattr(self, name, _filled(self._nrows, dtype, fill))

    def _grow_bookkeeping(self) -> None:
        """Lengthen each bookkeeping vector to ``_nrows``.  A vector is
        a prefix view of a private buffer with growth capacity, so an
        append at the tail fills only its own slots; a vector with no
        room behind it (full, exactly sized, or an image view) moves
        into a fresh buffer ``_GROWTH_FACTOR`` times the rows."""
        for name, _, fill in self._bookkeeping():
            vector = getattr(self, name)
            size = len(vector)
            if size >= self._nrows:
                continue
            buffer = vector.base
            if not (isinstance(buffer, np.ndarray) and buffer.ndim == 1
                    and buffer.dtype == vector.dtype
                    and buffer.flags.writeable
                    and len(buffer) >= self._nrows
                    and buffer.ctypes.data == vector.ctypes.data):
                buffer = private_copy(vector, max(
                    int(self._nrows * _GROWTH_FACTOR), _MIN_CAPACITY))
            buffer[size : self._nrows] = fill
            setattr(self, name, buffer[: self._nrows])

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self._nrows}, "
            f"live={self.num_live}, columns={len(self.columns)})"
        )


def _filled(length: int, dtype, value) -> np.ndarray:
    """A fresh :func:`~repro.core.column.empty_buffer` holding *value*."""
    buffer = empty_buffer(length, dtype)
    buffer.fill(value)
    return buffer
