"""The database image: one byte layout for the disk and for process shards.

An image is an 8-byte magic, the length of a JSON header, the header
(version, tables with column layouts, dictionaries and string heaps as
value lists, references, clustering, zone-map records, buffer map), then,
from the next 64-byte boundary, every fixed-width buffer raw at its
offset: :class:`~repro.core.column.FixedColumn` data, :class:`AIRColumn`
positions, :class:`DictColumn` codes, :class:`StringColumn` heap
addresses, deletion bits, MVCC version vectors and exported zone-map
summaries.  :func:`layout_database` is the one walk that lists a
database's buffers and assigns their offsets, :func:`write_image` the one
writer, and :func:`rebuild_database` the one rebuild of tables from views
over a mapping.

Two sinks share them.  :func:`repro.io.persist.save_database` writes an
image to a file, which ``load_database`` maps copy-on-write.  The process
shard backend (Section 5 at real cores) exports with
:meth:`ColumnArena.export`: the image goes through ``write()`` into an
anonymous memory file (``os.memfd_create``, Linux) that the export does
not map, so writing it adds no page to the exporter's resident set.
Workers reopen it as ``/proc/<pid>/fd/<n>``, map it read-only and
rebuild from the pickled :class:`ArenaManifest` (:func:`attach_database`):
no JSON parse, O(columns), independent of row count, and only the pages
a shard reads become resident.  The exporter maps it once
(:meth:`ColumnArena.attach`) and rebuilds every shard-0 attachment over
that one mapping.  The exporter's live database then adopts those views
as its storage (:meth:`repro.core.table.Table.adopt`) and frees its
private arrays, so the host holds the data once.

Lifecycle: the database owns its image.  The shard layer
(:mod:`repro.engine.sharding`) keeps at most one per database, recorded
with the stamp it holds; every shard backend over the database at that
stamp attaches to it, and a backend's close leaves it open.  The
exporter's descriptor closes (:meth:`ColumnArena.close`) when the
database goes, or when a later export at a newer stamp replaces it and
no open backend still attaches to it.  Each attachment's views hold
their mapping until the last of them dies, and a database that adopted
the image holds it as long as any of its buffers is still a view (a
write copies the buffer it touches; a later export's adoption swaps
them all).  The file has no name anywhere, so the kernel frees it once
the descriptor and every mapping are gone, even when the exporter is
killed.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import BinaryIO, Dict, List, Optional, Tuple

import numpy as np

from ..errors import StorageError
from .column import AIRColumn, DictColumn, FixedColumn, StringColumn
from .dictionary import Dictionary
from .schema import Database
from .table import Table
from .types import DataType

_ALIGN = 64  # cache-line alignment for every buffer
IMAGE_VERSION = 2
IMAGE_MAGIC = b"ASTOREDB"
IMAGE_PREAMBLE = struct.Struct("<8sQ")  # magic, header length in bytes


def image_base(header_len: int) -> int:
    """Offset of an image's first buffer: the aligned end of its header."""
    return -(-(IMAGE_PREAMBLE.size + header_len) // _ALIGN) * _ALIGN


@dataclass(frozen=True)
class BufferSpec:
    """Location of one fixed-width buffer, relative to the image base."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass
class ArenaManifest:
    """Everything a worker needs to attach: the image's path and base,
    the buffer map, the variable-width payloads and catalog metadata.

    ``zone_maps`` lists the zone-map summaries that were fresh at export
    time as ``(store_key, kind, block_rows, buffer_keys)`` records
    (``kind="codes"`` records append a metadata dict: the code domain
    and exactness) — attaching rebuilds them as zero-copy views so
    workers prune without re-scanning columns.
    """

    path: str = ""
    base: int = 0
    buffers: Dict[str, BufferSpec] = field(default_factory=dict)
    db_name: str = "db"
    tables: Dict[str, dict] = field(default_factory=dict)
    references: List[tuple] = field(default_factory=list)
    clustering: Dict[str, tuple] = field(default_factory=dict)
    zone_maps: List[tuple] = field(default_factory=list)


def _buffer_key(table: str, name: str) -> str:
    return f"{table}//{name}"


def layout_database(db: Database, zone_entries: Optional[List[tuple]] = None
                    ) -> Tuple[ArenaManifest, List[Tuple[str, np.ndarray]], int]:
    """The one layout walk: a manifest whose buffer map gives every
    fixed-width buffer of *db* a 64-byte-aligned offset, the ``(key,
    array)`` buffers in offset order, and their total size in bytes.
    *zone_entries* are as for :meth:`ColumnArena.export`."""
    from .statistics import ColumnCodeSetMap, ColumnZoneMap

    plan: List[Tuple[str, np.ndarray]] = []
    manifest = ArenaManifest(db_name=db.name,
                             clustering=dict(db.clustering))

    for table_name, table in db.tables.items():
        entry: dict = {"num_rows": table.num_rows, "mvcc": table._mvcc,
                       "free_slots": list(table._free_slots), "columns": []}
        plan.append((_buffer_key(table_name, "$deleted"), table._deleted))
        if table._mvcc:
            plan.append((_buffer_key(table_name, "$insert_version"),
                         table._insert_version))
            plan.append((_buffer_key(table_name, "$delete_version"),
                         table._delete_version))
        for col_name, column in table.columns.items():
            if isinstance(column, AIRColumn):
                data = column.values()
                layout = {"layout": "air", "referenced_table": column.referenced_table,
                          "dtype": data.dtype.name}
            elif isinstance(column, DictColumn):
                layout = {"layout": "dict", "dictionary": list(column.dictionary.values)}
                data = column.codes()
            elif isinstance(column, StringColumn):
                layout = {"layout": "string", "heap": list(column._heap)}
                data = column._addr.values()
            elif isinstance(column, FixedColumn):
                data = column.values()
                # a racing write that widens the column swaps its buffer
                # before its type: go by the buffer read
                dtype = (column.dtype if column.dtype.numpy_dtype == data.dtype
                         else DataType(data.dtype.name))
                layout = {"layout": "fixed", "dtype": dtype.value}
            else:
                raise StorageError(
                    f"cannot lay out column type {type(column).__name__}")
            entry["columns"].append({"name": col_name, **layout})
            plan.append((_buffer_key(table_name, col_name), data))
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
        manifest.buffers[key] = BufferSpec(offset, array.shape, array.dtype.str)
        offset += -(-array.nbytes // _ALIGN) * _ALIGN
    return manifest, plan, offset


def write_image(fh: BinaryIO, db: Database,
                zone_entries: Optional[List[tuple]] = None) -> ArenaManifest:
    """Write *db* as an image to *fh*, a new binary file, through
    ``write()`` alone, and return its manifest (``path`` is the
    caller's to fill).  *zone_entries* are as for
    :meth:`ColumnArena.export`."""
    manifest, plan, size = layout_database(db, zone_entries)
    header = json.dumps({
        "version": IMAGE_VERSION, "name": manifest.db_name,
        "tables": manifest.tables, "references": manifest.references,
        "clustering": manifest.clustering, "zone_maps": manifest.zone_maps,
        "buffers": {key: [spec.offset, spec.shape, spec.dtype]
                    for key, spec in manifest.buffers.items()},
    }).encode("utf-8")
    manifest.base = image_base(len(header))
    fh.write(IMAGE_PREAMBLE.pack(IMAGE_MAGIC, len(header)) + header)
    for key, array in plan:
        fh.seek(manifest.base + manifest.buffers[key].offset)
        fh.write(np.ascontiguousarray(array).data)
    fh.truncate(manifest.base + size)
    return manifest


class ColumnArena:
    """One exported database: its image in an anonymous memory file
    (``memfd_create``) plus the manifest that names it.

    Use :meth:`export` to create, :attr:`manifest` to hand to workers
    (:func:`attach_database`), :meth:`attach` for the exporter's own
    attachments, and :meth:`close` (or a ``with`` block) to drop the
    exporter's descriptor.  A process shard backend's arena is its
    database's image: it stays open as long as the database does, and
    every backend over that database attaches to it.
    :meth:`live_segments` lists the arenas not yet closed; an image a
    database adopted as its storage outlives its arena's close and is
    not listed.
    """

    _live: Dict[str, "ColumnArena"] = {}

    def __init__(self, manifest: ArenaManifest, fd: int):
        self.manifest = manifest
        self._fd: Optional[int] = fd
        self._mapping: Optional[mmap.mmap] = None
        ColumnArena._live[manifest.path] = self

    @classmethod
    def export(cls, db: Database,
               zone_entries: Optional[List[tuple]] = None) -> "ColumnArena":
        """Write *db*'s image into a new anonymous memory file.

        *zone_entries* are ``(store_key, value)`` pairs from
        :func:`repro.core.statistics.fresh_zone_entries`; their summary
        arrays ride in the same image so attached databases prune from
        the exact zone maps the exporter built, zero-copy.  The image is
        written through ``write()``, never mapped here, so exporting
        faults none of its pages into this process's resident set.
        """
        fd = os.memfd_create("astore-image")
        try:
            with open(fd, "wb", closefd=False) as fh:
                manifest = write_image(fh, db, zone_entries)
        except BaseException:
            os.close(fd)
            raise
        manifest.path = f"/proc/{os.getpid()}/fd/{fd}"
        return cls(manifest, fd)

    @property
    def nbytes(self) -> int:
        """Size of the image in bytes."""
        return os.fstat(self._fd).st_size if self._fd is not None else 0

    @property
    def closed(self) -> bool:
        return self._fd is None

    def attach(self) -> AttachedDatabase:
        """The database rebuilt over the exporter's one read-only mapping
        of the image, made on the first call: every attachment the
        exporter makes shares it, O(columns) each.  Callers serialize
        the calls."""
        if self._fd is None:
            raise StorageError("cannot attach a closed arena")
        if self._mapping is None:
            self._mapping = _map_image(self.manifest.path)
        return AttachedDatabase(*rebuild_database(
            self.manifest, self._mapping, self.manifest.base))

    def close(self) -> None:
        """Close the exporter's descriptor and drop its mapping;
        idempotent.  The memory goes with the last mapping of the image:
        views attached before the close stay valid, and no new attach
        can follow it."""
        fd, self._fd, self._mapping = self._fd, None, None
        ColumnArena._live.pop(self.manifest.path, None)
        if fd is not None:
            os.close(fd)

    @classmethod
    def live_segments(cls) -> List[str]:
        """Paths of all not-yet-closed arenas (leak diagnostics/tests):
        the image each database exported for its shard backends, while
        the database lives, and any arena exported directly."""
        return sorted(cls._live)

    def __enter__(self) -> "ColumnArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class AttachedDatabase:
    """A database rebuilt over a read-only mapping of an exported image.

    ``zone_maps`` are the exporter's zone-map summaries as ``(store_key,
    value)`` pairs over zero-copy views; the attaching side decides which
    store to seed with them.  The views hold the mapping, which is
    unmapped with the last of them, so :meth:`close` only drops this
    handle's references and never pulls pages from under a reader.
    """

    db: Optional[Database]
    zone_maps: List[tuple]

    def close(self) -> None:
        self.db, self.zone_maps = None, []

    def __enter__(self) -> "AttachedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_database(manifest: ArenaManifest) -> AttachedDatabase:
    """Map the image at ``manifest.path`` read-only (``ACCESS_READ``) and
    rebuild its database from the pickled *manifest*: every fixed-width
    array is a zero-copy, non-writable view, no JSON is parsed, and only
    the pages a reader touches become resident."""
    return AttachedDatabase(*rebuild_database(
        manifest, _map_image(manifest.path), manifest.base))


def _map_image(path: str) -> mmap.mmap:
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def rebuild_database(manifest: ArenaManifest, buffer, base: int = 0,
                     writeable: bool = False) -> Tuple[Database, List[tuple]]:
    """The one column rebuild: a :class:`Database` whose arrays are plain
    ``ndarray`` views of *buffer* at ``base + offset`` (O(columns), no
    row is read), plus the zone-map summaries as ``(store_key, value)``
    pairs.  Views are read-only unless *writeable*; every table buffer
    must have the dtype its layout stores and one slot per row."""
    def view(key: str, dtype=None, rows: int = 0) -> np.ndarray:
        spec = manifest.buffers[key]
        array = np.ndarray(spec.shape, dtype=spec.dtype, buffer=buffer,
                           offset=base + spec.offset)
        if dtype is not None and (array.dtype, array.shape) != (dtype, (rows,)):
            raise StorageError(f"buffer {key!r} does not match its table")
        array.flags.writeable = writeable
        return array

    db = Database(manifest.db_name)
    for table_name, entry in manifest.tables.items():
        rows = entry["num_rows"]

        def table_view(name: str, dtype) -> np.ndarray:
            return view(_buffer_key(table_name, name), dtype, rows)

        columns = [_wrap_column(col_entry, partial(table_view, col_entry["name"]))
                   for col_entry in entry["columns"]]
        versions = ((table_view("$insert_version", np.int64),
                     table_view("$delete_version", np.int64))
                    if entry["mvcc"] else ())
        table = Table.wrap(table_name, columns, rows,
                           table_view("$deleted", np.bool_),
                           entry["free_slots"], *versions)
        db.add_table(table)
    for child_table, child_column, parent_table, parent_key in \
            manifest.references:
        db.add_reference(child_table, child_column, parent_table, parent_key)
    db.clustering.update(manifest.clustering)

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
    return db, zone_maps


def _wrap_column(entry: dict, view):
    """One column of *entry*'s layout over ``view(dtype)``, its stored dtype."""
    layout = entry["layout"]
    name = entry["name"]
    if layout == "air":
        # an image from before AIR columns were narrowed records no type
        return AIRColumn.wrap_air(name, entry["referenced_table"],
                                  view(np.dtype(entry.get("dtype", "int64"))))
    if layout == "dict":
        return DictColumn.wrap(name, Dictionary.distinct(entry["dictionary"]),
                               view(np.int32))
    if layout == "string":
        return StringColumn.wrap(name, entry["heap"], view(np.int64))
    if layout == "fixed":
        dtype = DataType(entry["dtype"])
        return FixedColumn.wrap(name, dtype, view(dtype.numpy_dtype))
    raise StorageError(f"unknown column layout {layout!r} in manifest")
