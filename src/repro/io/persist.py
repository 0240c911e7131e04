"""Database persistence: the database image in a file.

The image format is :mod:`repro.core.arena`'s, written by its one
:func:`~repro.core.arena.write_image` (the process backend's exports are
the same bytes in an anonymous memory file).  The header is JSON, never
pickle: a file is outside input.  Loading maps the file copy-on-write
and rebuilds the tables as views of it (AIR columns too, no
``airify()``): O(columns), no row read, and writes to the loaded
database land in private memory, never in the file.  Saving makes the
saved database's storage the file it wrote, as a process-shard export
makes it the exported image.  Zone-map records in an exported image's
header are not read back.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from pathlib import Path
from typing import Union

import numpy as np

from ..core import Database
from ..core.arena import (IMAGE_MAGIC, IMAGE_PREAMBLE, IMAGE_VERSION,
                          ArenaManifest, BufferSpec, image_base,
                          rebuild_database, write_image)
from ..errors import SchemaError, StorageError


def save_database(db: Database, path: Union[str, Path]) -> None:
    """Write *db* as a database image at *path*.

    Deleted rows are preserved (the deletion vector is stored), so a
    loaded database resumes exactly where the saved one stopped — free
    slots included; MVCC version vectors are stored when present.  The
    image is written to a sibling file that then replaces *path*, so a
    database still mapped from the old file keeps reading it.

    Then every table still at the stamp it was written at adopts the
    file as its storage (:meth:`~repro.core.table.Table.adopt`): its
    fixed-width buffers become read-only views of the file and its
    private arrays go, so the data is held once, by the page cache, and
    only what is read stays resident.  A later write copies the buffer
    it touches first, and never reaches the file.
    """
    path = Path(path)
    stamps = {name: table.mutation_count for name, table in db.tables.items()}
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write_image(fh, db)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    image = _map_image(path, writeable=False)
    for name, count in stamps.items():
        db.table(name).adopt(image.table(name), count)


def load_database(path: Union[str, Path]) -> Database:
    """Map the image at *path* copy-on-write and rebuild its database.

    Raises :class:`StorageError` for anything that is not a whole image
    of this version: an old ``.npz`` archive, a truncated file, a buffer
    past the end of the file, a malformed header.
    """
    return _map_image(path, writeable=True)


def _map_image(path: Union[str, Path], writeable: bool) -> Database:
    """The database of the image at *path*, rebuilt over a mapping of
    the file: copy-on-write views if *writeable*, read-only ones if
    not."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic, header_len = IMAGE_PREAMBLE.unpack(
            fh.read(IMAGE_PREAMBLE.size).ljust(IMAGE_PREAMBLE.size, b"\0"))
        if magic != IMAGE_MAGIC:
            raise StorageError(f"{path} is not a database image; regenerate "
                               "it with 'astore generate'")
        base = image_base(header_len)
        if base > size:
            raise StorageError(f"{path}: truncated database image")
        try:
            header = json.loads(fh.read(header_len))
            if header["version"] != IMAGE_VERSION:
                raise StorageError(f"{path}: unsupported image version "
                                   f"{header['version']!r}")
            manifest = ArenaManifest(
                db_name=header["name"], tables=header["tables"],
                references=[tuple(ref) for ref in header["references"]],
                clustering={name: tuple(spec) for name, spec
                            in header["clustering"].items()})
            end = base  # a whole image ends where its last buffer's padding does
            for key, (offset, shape, dtype) in header["buffers"].items():
                spec = BufferSpec(int(offset), tuple(map(int, shape)), dtype)
                nbytes = math.prod(spec.shape) * np.dtype(dtype).itemsize
                if spec.offset < 0 or min(spec.shape, default=0) < 0:
                    raise StorageError(f"{path}: buffer {key!r} is malformed")
                end = max(end, base + spec.offset + -(-nbytes // 64) * 64)
                manifest.buffers[key] = spec
            if end != size:
                raise StorageError(f"{path}: image is {size} bytes, its buffer "
                                   f"map needs {end} (truncated or damaged?)")
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY
                                if writeable else mmap.ACCESS_READ)
            return rebuild_database(manifest, mapping, base,
                                    writeable=writeable)[0]
        except (LookupError, TypeError, ValueError, AttributeError, SchemaError) as exc:
            raise StorageError(f"{path}: malformed database image header "
                               f"({exc!r})") from exc
