"""Shared-memory column arenas: zero-copy database export for worker processes.

The process shard backend (Section 5 at real cores) needs every worker to
see the loaded database without copying it.  A :class:`ColumnArena` packs
all fixed-width column buffers of a :class:`~repro.core.schema.Database` —
:class:`~repro.core.column.FixedColumn` data, :class:`AIRColumn` positions,
:class:`DictColumn` codes, :class:`StringColumn` heap addresses, deletion
bits, and MVCC version vectors — into one POSIX shared-memory segment
(``multiprocessing.shared_memory``).  The picklable :class:`ArenaManifest`
records each buffer's offset/shape/dtype plus the variable-width payloads
that cannot be shared (dictionaries and string heaps, which are copied);
:func:`attach_database` rebuilds an equivalent read-only ``Database`` in
another process whose NumPy arrays are views into the segment — attaching
is O(columns), independent of row count.

Lifecycle: the exporting process owns the segment.  Workers attach and
``close()`` their mapping; only the owner's :meth:`ColumnArena.close`
unlinks the segment from ``/dev/shm``.  Every live arena is tracked in a
module registry drained by ``atexit``, so segments are released even if an
engine is never closed explicitly.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import StorageError
from .column import AIRColumn, DictColumn, FixedColumn, StringColumn
from .schema import Database
from .table import Table
from .types import DataType

_ALIGN = 64  # cache-line alignment for every buffer


@dataclass(frozen=True)
class BufferSpec:
    """Location of one fixed-width buffer inside the shared segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass
class ArenaManifest:
    """Everything a worker needs to attach: segment name + buffer map +
    the non-shareable (pickled) payloads and catalog metadata.

    ``zone_maps`` lists the zone-map summaries that were fresh at export
    time as ``(store_key, kind, block_rows, buffer_keys)`` records
    (``kind="codes"`` records append a metadata dict: the code domain
    and exactness) — attaching rebuilds them as zero-copy views so
    workers prune without re-scanning columns.
    """

    segment: str
    buffers: Dict[str, BufferSpec] = field(default_factory=dict)
    db_name: str = "db"
    tables: Dict[str, dict] = field(default_factory=dict)
    references: List[tuple] = field(default_factory=list)
    zone_maps: List[tuple] = field(default_factory=list)


def _buffer_key(table: str, name: str) -> str:
    return f"{table}//{name}"


class ColumnArena:
    """One exported database: a shared segment plus its manifest.

    Use :meth:`export` to create, :attr:`manifest` to hand to workers,
    and :meth:`close` (or a ``with`` block) to release the segment.
    """

    _live: Dict[str, "ColumnArena"] = {}

    def __init__(self, manifest: ArenaManifest,
                 shm: shared_memory.SharedMemory):
        self.manifest = manifest
        self._shm: Optional[shared_memory.SharedMemory] = shm
        ColumnArena._live[manifest.segment] = self

    # -- export ------------------------------------------------------------

    @classmethod
    def export(cls, db: Database,
               zone_entries: Optional[List[tuple]] = None) -> "ColumnArena":
        """Copy every fixed-width buffer of *db* into a new shared segment.

        *zone_entries* are ``(store_key, value)`` pairs from
        :func:`repro.core.statistics.fresh_zone_entries`; their summary
        arrays ride in the same segment so attached databases prune
        from the exact zone maps the parent built, zero-copy.
        """
        from .statistics import ColumnCodeSetMap, ColumnZoneMap

        plan: List[Tuple[str, np.ndarray]] = []
        manifest = ArenaManifest(segment="", db_name=db.name)

        for table_name, table in db.tables.items():
            entry: dict = {
                "num_rows": table.num_rows,
                "mvcc": table._mvcc,
                "free_slots": list(table._free_slots),
                "columns": [],
            }
            plan.append((_buffer_key(table_name, "$deleted"), table._deleted))
            if table._mvcc:
                plan.append((_buffer_key(table_name, "$insert_version"),
                             table._insert_version))
                plan.append((_buffer_key(table_name, "$delete_version"),
                             table._delete_version))
            for col_name, column in table.columns.items():
                key = _buffer_key(table_name, col_name)
                if isinstance(column, AIRColumn):
                    entry["columns"].append({
                        "name": col_name, "layout": "air",
                        "referenced_table": column.referenced_table})
                    plan.append((key, column.values()))
                elif isinstance(column, DictColumn):
                    entry["columns"].append({
                        "name": col_name, "layout": "dict",
                        "dictionary": column.dictionary})
                    plan.append((key, column.codes()))
                elif isinstance(column, StringColumn):
                    entry["columns"].append({
                        "name": col_name, "layout": "string",
                        "heap": list(column._heap)})
                    plan.append((key, column._addr.values()))
                elif isinstance(column, FixedColumn):
                    entry["columns"].append({
                        "name": col_name, "layout": "fixed",
                        "dtype": column.dtype.value})
                    plan.append((key, column.values()))
                else:
                    raise StorageError(
                        f"cannot export column layout {type(column).__name__}")
            manifest.tables[table_name] = entry

        for ref in db.references:
            manifest.references.append(
                (ref.child_table, ref.child_column,
                 ref.parent_table, ref.parent_key))

        for i, (store_key, value) in enumerate(zone_entries or ()):
            if isinstance(value, ColumnZoneMap):
                keys = (f"$zm{i}//min", f"$zm{i}//max")
                plan.append((keys[0], value.mins))
                plan.append((keys[1], value.maxs))
                manifest.zone_maps.append(
                    (store_key, "column", value.block_rows, keys))
            elif isinstance(value, ColumnCodeSetMap):
                keys = (f"$zm{i}//bits", f"$zm{i}//dirty")
                plan.append((keys[0], value.bits))
                plan.append((keys[1], value.dirty))
                manifest.zone_maps.append(
                    (store_key, "codes", value.block_rows, keys,
                     {"domain": value.domain, "exact": value.exact}))

        offset = 0
        for key, array in plan:
            manifest.buffers[key] = BufferSpec(
                offset, array.shape, array.dtype.str)
            offset += -(-array.nbytes // _ALIGN) * _ALIGN
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        manifest.segment = shm.name
        for key, array in plan:
            spec = manifest.buffers[key]
            view = np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=shm.buf, offset=spec.offset)
            view[...] = array
        return cls(manifest, shm)

    # -- lifecycle ---------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self._shm.size if self._shm is not None else 0

    @property
    def closed(self) -> bool:
        return self._shm is None

    def attach(self) -> "AttachedDatabase":
        """The exporting process's own read-only view of the arena.

        The views sit on this arena's mapping rather than a second one:
        every page was resident here since the export, and a second
        mapping would count each page the views touch twice in this
        process's resident set.  The arena keeps ownership; the views
        are invalid once :meth:`close` unmaps the segment."""
        if self._shm is None:
            raise StorageError("arena is closed")
        return attach_database(self.manifest, segment=self._shm)

    def close(self) -> None:
        """Release the segment: close the mapping and unlink from
        ``/dev/shm``.  Idempotent; workers must have detached (their views
        stay valid until they close their own mapping)."""
        shm, self._shm = self._shm, None
        ColumnArena._live.pop(self.manifest.segment, None)
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # already unlinked elsewhere
                pass

    @classmethod
    def live_segments(cls) -> List[str]:
        """Names of all not-yet-closed arenas (leak diagnostics/tests)."""
        return sorted(cls._live)

    def __enter__(self) -> "ColumnArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass


@atexit.register
def _drain_live_arenas() -> None:  # pragma: no cover - process teardown
    for arena in list(ColumnArena._live.values()):
        arena.close()


class AttachedDatabase:
    """A worker-side view of an exported database.

    Holds the shared-memory mapping open for as long as the rebuilt
    :attr:`db` is in use; :meth:`close` drops the mapping (the owner is
    responsible for unlinking; with ``shm=None`` the mapping belongs to
    the exporting arena and :meth:`close` leaves it alone).
    ``zone_maps`` are the parent's exported zone-map summaries as
    ``(store_key, value)`` pairs over zero-copy views — the attaching
    side decides which store to seed with them.
    """

    def __init__(self, db: Database,
                 shm: Optional[shared_memory.SharedMemory],
                 zone_maps: Optional[List[tuple]] = None):
        self.db = db
        self.zone_maps: List[tuple] = list(zone_maps or ())
        self._shm: Optional[shared_memory.SharedMemory] = shm

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is not None:
            shm.close()

    def __enter__(self) -> "AttachedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_database(manifest: ArenaManifest,
                    segment: Optional[shared_memory.SharedMemory] = None
                    ) -> AttachedDatabase:
    """Rebuild a read-only :class:`Database` over the shared segment.

    Every fixed-width array is a zero-copy, non-writable view into the
    segment; dictionaries and string heaps come (copied) from the
    manifest.  The attaching process does not own the segment: it must
    :meth:`AttachedDatabase.close` its mapping and leave unlinking to the
    exporting process.  (Spawned workers share the parent's resource
    tracker, so attaching registers nothing new and a worker exit never
    tears the segment down under the parent.)  With *segment* — an
    already-open mapping, see :meth:`ColumnArena.attach` — the views sit
    on that mapping and the attachment does not own it.
    """
    shm = (segment if segment is not None
           else shared_memory.SharedMemory(name=manifest.segment))

    def view(key: str) -> np.ndarray:
        spec = manifest.buffers[key]
        array = np.ndarray(spec.shape, dtype=spec.dtype,
                           buffer=shm.buf, offset=spec.offset)
        array.flags.writeable = False
        return array

    db = Database(manifest.db_name)
    for table_name, entry in manifest.tables.items():
        table = Table(table_name, mvcc=entry["mvcc"])
        for col_entry in entry["columns"]:
            data = view(_buffer_key(table_name, col_entry["name"]))
            table.add_column(_wrap_column(col_entry, data))
        # attach-time restore: the worker-side table mirrors the arena's
        # exported point-in-time buffers; these writes are construction,
        # and the arena's staleness is tracked by database_stamp, not here
        table._nrows = entry["num_rows"]  # astore: ignore[stamp-protocol]
        table._deleted = view(_buffer_key(table_name, "$deleted"))  # astore: ignore[stamp-protocol]
        table._free_slots = list(entry["free_slots"])  # astore: ignore[stamp-protocol]
        if entry["mvcc"]:
            table._insert_version = view(  # astore: ignore[stamp-protocol]
                _buffer_key(table_name, "$insert_version"))
            table._delete_version = view(  # astore: ignore[stamp-protocol]
                _buffer_key(table_name, "$delete_version"))
        db.add_table(table)
    for child_table, child_column, parent_table, parent_key in \
            manifest.references:
        db.add_reference(child_table, child_column, parent_table, parent_key)

    from .statistics import ColumnCodeSetMap, ColumnZoneMap

    zone_maps: List[tuple] = []
    for record in manifest.zone_maps:
        store_key, kind, block_rows, keys = record[:4]
        if kind == "column":
            value: object = ColumnZoneMap(block_rows, view(keys[0]),
                                          view(keys[1]))
        else:
            extra = record[4]
            value = ColumnCodeSetMap(block_rows, extra["domain"],
                                     view(keys[0]), view(keys[1]),
                                     extra["exact"])
        zone_maps.append((store_key, value))
    return AttachedDatabase(db, None if segment is not None else shm,
                            zone_maps)


def _wrap_column(entry: dict, data: np.ndarray):
    layout = entry["layout"]
    name = entry["name"]
    if layout == "air":
        return AIRColumn.wrap_air(name, entry["referenced_table"], data)
    if layout == "dict":
        return DictColumn.wrap(name, entry["dictionary"], data)
    if layout == "string":
        return StringColumn.wrap(name, entry["heap"], data)
    if layout == "fixed":
        return FixedColumn.wrap(name, DataType(entry["dtype"]), data)
    raise StorageError(f"unknown column layout {layout!r} in manifest")
