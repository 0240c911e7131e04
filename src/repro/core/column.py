"""Columns of an array family (Section 2 of the paper).

Every column is backed by a fixed-width NumPy array with reserved free
capacity at the tail (the paper appends into reserved space so insertion
rarely reallocates).  Four physical layouts are provided:

* :class:`FixedColumn` — plain fixed-width values (ints, floats, dates);
* :class:`DictColumn` — dictionary-compressed values: an ``int32`` code
  array plus a :class:`~repro.core.dictionary.Dictionary`;
* :class:`StringColumn` — variable-length strings in a heap, with the heap
  addresses kept in the array (the paper's varchar layout);
* :class:`AIRColumn` — a foreign key stored as array indexes of the
  referenced table (the Array Index Reference itself).

A backing array may be a read-only view of a database image: a column
rebuilt over a mapped image, or one whose table adopted an exported
image as its storage (:meth:`repro.core.table.Table.adopt`).  Writes
copy such a buffer into private memory first, so they never reach the
image that other readers share (copy on first write).

Every private fixed-width buffer the storage layer makes comes from
:func:`empty_buffer`: one of at least a huge page is a private anonymous
mapping of its own, so it goes back to the operating system when its
last view goes, and capacity nobody wrote to is never resident.
"""

from __future__ import annotations

import mmap
import threading
import tracemalloc
import weakref
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import StorageError
from .dictionary import Dictionary
from .types import INTEGER_TYPES, DataType, narrowest_int_type, reference_type

_GROWTH_FACTOR = 1.5
_MIN_CAPACITY = 16

#: index entries per slice of :func:`gather_into` and :func:`take_at`
_GATHER_SLICE = 1 << 16

#: each thread's ``intp`` index buffer for :func:`take_at`
_INDEX = threading.local()
_INTP = np.dtype(np.intp)

#: Buffers of at least this many bytes get a mapping of their own:
#: below a huge page too, so a narrow column at a small scale (an int8
#: measure is 0.6 MB at sf=0.1) that a write or a compaction replaces
#: does not go back into a malloc heap that keeps its pages resident.
MAPPED_BUFFER_BYTES = 256 << 10

_MAP_FLAGS = (getattr(mmap, "MAP_PRIVATE", 0)
              | getattr(mmap, "MAP_ANONYMOUS", 0))
_MADV_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)
#: tracemalloc domain of the mapped buffers: NumPy's own, so a traced
#: run counts them where it would count the ``np.empty`` they replace
_TRACE_DOMAIN = 389047
_trace_calls = None


def empty_buffer(length: int, dtype,
                 written: Optional[int] = None) -> np.ndarray:
    """An uninitialised, writeable 1-D array of *length* items of
    *dtype*: the one allocator of every private fixed-width storage
    buffer (column data, codes, addresses, AIR positions, bookkeeping).

    Below :data:`MAPPED_BUFFER_BYTES` it is ``np.empty``.  At or above,
    it is a view of a private anonymous mapping of its own: the mapping
    is unmapped when the last view of the buffer goes, instead of
    returning to a malloc heap that keeps its pages resident, and pages
    nobody wrote to — a column's growth capacity — are never resident.
    The first *written* items (default: all), which the caller is about
    to fill, get the huge-page hint where the platform has one, so they
    fault in 2 MiB at a time; the capacity behind them faults in
    ordinary pages as appends reach it.  The mapping is private, not
    shared: shared anonymous memory is shmem, which faults in 4 KiB
    pages unless shmem huge pages are enabled.  Under
    :mod:`tracemalloc` the mapping is traced like a NumPy allocation of
    the same size.
    """
    dtype = np.dtype(dtype)
    nbytes = length * dtype.itemsize
    if nbytes < MAPPED_BUFFER_BYTES or not _MAP_FLAGS:
        return np.empty(length, dtype=dtype)
    mapping = mmap.mmap(-1, nbytes, flags=_MAP_FLAGS)
    hinted = nbytes if written is None else written * dtype.itemsize
    if _MADV_HUGEPAGE is not None and hinted:
        try:
            mapping.madvise(_MADV_HUGEPAGE, 0, hinted)
        except OSError:  # transparent huge pages compiled out
            pass
    buffer = np.frombuffer(mapping, dtype=dtype, count=length)
    if tracemalloc.is_tracing():
        _trace(mapping, buffer.ctypes.data, nbytes)
    return buffer


def gather_into(values: np.ndarray, positions: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """``out[i] = values[positions[i]]`` for every *positions* entry,
    which must be a valid index of *values* (nothing is checked).

    One slice of *positions* at a time: NumPy widens an index narrower
    than ``intp`` (a consolidation order held at int32) into a copy of
    its own, and per slice that copy stays small."""
    for start in range(0, len(positions), _GATHER_SLICE):
        stop = min(start + _GATHER_SLICE, len(positions))
        np.take(values, positions[start:stop], out=out[start:stop],
                mode="clip")
    return out


def take_at(values: np.ndarray, positions) -> np.ndarray:
    """``values[positions]``: the gather of every AIR band.

    NumPy indexes through ``intp``.  Handed a narrower index (an AIR
    column stored at int32), fancy indexing casts it on a slow buffered
    path and runs about twice as long.  Here the index is cast one
    :data:`_GATHER_SLICE` at a time into this thread's ``intp`` buffer,
    which is then a plain fancy index: the gather runs as fast as over
    an ``intp`` index, and an out-of-range position still raises
    ``IndexError`` (``mode="clip"`` would answer with a wrong row).
    The buffer is per thread because shard and serve threads gather at
    once, and no call yields while it holds it."""
    if not isinstance(positions, np.ndarray):
        positions = np.asarray(positions)
    dtype = positions.dtype
    if (dtype.itemsize >= _INTP.itemsize or dtype.kind not in "iu"
            or positions.ndim != 1):
        return values[positions]
    try:
        index = _INDEX.buffer
    except AttributeError:
        index = _INDEX.buffer = np.empty(_GATHER_SLICE, dtype=_INTP)
    n = len(positions)
    if n <= _GATHER_SLICE:
        index = index[:n]
        index[...] = positions
        return values[index]
    out = np.empty(n, dtype=values.dtype)
    for start in range(0, n, _GATHER_SLICE):
        stop = min(start + _GATHER_SLICE, n)
        index[: stop - start] = positions[start:stop]
        out[start:stop] = values[index[: stop - start]]
    return out


def _trace(mapping: mmap.mmap, address: int, nbytes: int) -> None:
    """Register *mapping* with tracemalloc (``PyTraceMalloc_Track``, the
    C API NumPy traces its own buffers with) until it is unmapped."""
    global _trace_calls
    if _trace_calls is None:
        import ctypes

        track = ctypes.pythonapi.PyTraceMalloc_Track
        track.argtypes = [ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t]
        untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
        untrack.argtypes = [ctypes.c_uint, ctypes.c_size_t]
        _trace_calls = track, untrack
    track, untrack = _trace_calls
    if track(_TRACE_DOMAIN, address, nbytes) == 0:
        weakref.finalize(mapping, untrack, _TRACE_DOMAIN, address)


def narrowed(buffer: np.ndarray, length: int, dtype) -> np.ndarray:
    """The first *length* items of *buffer* converted to the narrower
    integer *dtype* (every value must fit) inside *buffer*'s own memory,
    which the caller hands over: a slice at a time, each slice landing
    on bytes already read.  When *buffer* is a whole
    :func:`empty_buffer` mapping, the pages behind the result go back to
    the operating system, so narrowing never holds the wide and the
    narrow array at once."""
    out = buffer.view(dtype)[:length]
    for start in range(0, length, _GATHER_SLICE):
        stop = min(start + _GATHER_SLICE, length)
        out[start:stop] = buffer[start:stop]
    mapping = getattr(buffer.base, "obj", None)
    if (isinstance(mapping, mmap.mmap) and _MADV_DONTNEED is not None
            and buffer.nbytes == len(mapping)):
        keep = -(-out.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        if keep < len(mapping):
            mapping.madvise(_MADV_DONTNEED, keep, len(mapping) - keep)
    return out


def private_copy(array: np.ndarray, capacity: Optional[int] = None,
                 dtype=None) -> np.ndarray:
    """*array* copied into a fresh :func:`empty_buffer` of *capacity*
    items (default its length) and *dtype* (default its own) — the copy
    on first write of an image view, a buffer's growth, and a column's
    widening."""
    copy = empty_buffer(len(array) if capacity is None else capacity,
                        array.dtype if dtype is None else dtype,
                        written=len(array))
    copy[: len(array)] = array
    return copy


class Column:
    """Abstract base for all column layouts."""

    name: str
    dtype: DataType

    def __len__(self) -> int:
        raise NotImplementedError

    def values(self) -> np.ndarray:
        """The logical values of the column as an array of length ``len``."""
        raise NotImplementedError

    def take(self, positions: np.ndarray) -> np.ndarray:
        """Positional gather: values at the given array indexes."""
        raise NotImplementedError

    def get(self, position: int):
        """Single-value positional access."""
        raise NotImplementedError

    def append(self, values: Sequence) -> None:
        """Append values at the end of the column."""
        raise NotImplementedError

    def put(self, positions: np.ndarray, values: Sequence) -> None:
        """In-place update of existing slots."""
        raise NotImplementedError

    def share(self, image: "Column") -> None:
        """Back this column's fixed-width buffer with *image*'s, a column
        of the same layout and values (see
        :meth:`repro.core.table.Table.adopt`)."""
        raise NotImplementedError

    def reorder(self, mapping: np.ndarray) -> None:
        """Physically permute: new column = old column gathered by *mapping*.

        Used by consolidation; *mapping* lists, for each new position, the
        old position whose value it takes, and may shrink the column.  The
        caller guarantees every entry is a valid position
        (:meth:`~repro.core.table.Table.consolidate` checks its order).
        """
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Bytes of live storage (backing array + auxiliary payloads)."""
        raise NotImplementedError


class FixedColumn(Column):
    """A fixed-width column backed by a growable NumPy array.

    An integer column may be narrower than ``int64`` (the generators
    store each measure at the width its domain needs).  A write of a
    value that width cannot hold widens the column — a copy into a
    wider buffer, where copy on first write happens — and never wraps.
    """

    def __init__(self, name: str, dtype: DataType, data=None, capacity: int = 0):
        if dtype == DataType.STRING:
            raise StorageError("use StringColumn or DictColumn for strings")
        self.name = name
        self.dtype = dtype
        np_dtype = dtype.numpy_dtype
        if data is not None:
            data = np.ascontiguousarray(data, dtype=np_dtype)
            self._n = len(data)
            self._data = empty_buffer(max(capacity, self._n, _MIN_CAPACITY),
                                      np_dtype, written=self._n)
            self._data[: self._n] = data
        else:
            self._n = 0
            self._data = empty_buffer(max(capacity, _MIN_CAPACITY), np_dtype,
                                      written=0)

    @classmethod
    def wrap(cls, name: str, dtype: DataType, data: np.ndarray) -> "FixedColumn":
        """Zero-copy constructor over an existing backing array.

        Used by the image rebuild (*data* typically a view into a mapped
        database image) and by loaders that hand over a fresh buffer
        they no longer use (the generators, which write each column
        straight into an :func:`empty_buffer`; ``Database.airify``;
        consolidation's AIR remap): *data* becomes the backing array
        as-is, with no reserved tail capacity.  Appending to a wrapped
        column grows it into a fresh :func:`empty_buffer`, and the first
        write to a read-only *data* copies it into one (copy on first
        write); either way the old buffer is released with its last
        view.
        """
        column = cls.__new__(cls)
        column.name = name
        column.dtype = dtype
        column._data = data
        column._n = len(data)
        return column

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        """Allocated slots (>= len; the tail is reserved free space)."""
        return len(self._data)

    def values(self) -> np.ndarray:
        return self._data[: self._n]

    def take(self, positions: np.ndarray) -> np.ndarray:
        return take_at(self._data[: self._n], positions)

    def get(self, position: int):
        if not 0 <= position < self._n:
            raise StorageError(f"position {position} out of range")
        return self._data[position].item()

    def append(self, values: Sequence) -> None:
        values, dtype = self._fit(values)
        self._ensure(self._n + len(values), dtype)
        self._data[self._n : self._n + len(values)] = values
        self._n += len(values)

    def put(self, positions: np.ndarray, values: Sequence) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) and (positions.min() < 0 or positions.max() >= self._n):
            raise StorageError("update position out of range")
        values, dtype = self._fit(values)
        self._ensure(self._n, dtype)
        self._data[positions] = values

    def _fit(self, values: Sequence) -> Tuple[np.ndarray, DataType]:
        """*values* as an array of the type this column needs to store
        them: its own, or — for an integer batch its width cannot hold —
        the narrowest integer type that holds the batch and the column's
        range, so a write widens the column instead of wrapping.  The
        check reads the batch's min and max only when its dtype does not
        cast safely (an ``int64`` batch into a narrower column)."""
        values = np.asarray(values)
        dtype = self.dtype
        if (values.size and values.dtype.kind in "iu"
                and not np.can_cast(values.dtype, dtype.numpy_dtype)):
            lo, hi = int(values.min()), int(values.max())
            info = np.iinfo(dtype.numpy_dtype)
            if lo < info.min or hi > info.max:
                if dtype not in INTEGER_TYPES:
                    raise StorageError(f"value out of range for {dtype.value} "
                                       f"column {self.name!r}")
                dtype = narrowest_int_type(min(lo, info.min),
                                           max(hi, info.max))
        return np.asarray(values, dtype=dtype.numpy_dtype), dtype

    def share(self, image: "FixedColumn") -> None:
        """Back this column with *image*'s buffer, which holds the same
        values (a read-only view of an exported image); the private
        array goes.  The next write copies it into private memory."""
        self._data = image.values()

    def reorder(self, mapping: np.ndarray) -> None:
        """Gather into a fresh :func:`empty_buffer` with growth capacity
        (not resident until written), never in place: a reader holding
        a view of the old buffer keeps reading the old layout, and the
        old buffer is released with its last view."""
        # gathered straight into the new buffer: consolidation has
        # already checked *mapping* lists valid rows, and a bounds-checked
        # take would stage through a temporary of the same size
        n = len(mapping)
        data = empty_buffer(max(int(n * _GROWTH_FACTOR), _MIN_CAPACITY),
                            self.dtype.numpy_dtype, written=n)
        gather_into(self._data[: self._n], mapping, data[:n])
        self._data, self._n = data, n

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    def _ensure(self, needed: int, dtype: Optional[DataType] = None) -> None:
        """Make the backing array private, writeable, at least *needed*
        slots long and of type *dtype* (default: the column's): a
        read-only (image) buffer is copied on this first write, a full
        one grows, and a narrower one is copied into the wider type."""
        dtype = self.dtype if dtype is None else dtype
        fits = needed <= len(self._data)
        if fits and dtype is self.dtype:
            if not self._data.flags.writeable:
                self._data = private_copy(self._data)
            return
        capacity = (len(self._data) if fits
                    else max(int(needed * _GROWTH_FACTOR), _MIN_CAPACITY))
        # the buffer before the type: a reader that pairs the two
        # (``layout_database``) goes by the buffer's dtype
        self._data = private_copy(self._data[: self._n], capacity,
                                  dtype.numpy_dtype)
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.dtype.value}, n={self._n})"


class AIRColumn(FixedColumn):
    """A foreign-key column storing array indexes of the referenced table.

    Joining through an AIRColumn is a positional gather on the referenced
    array family — no hash table, no comparison.  The positions are
    stored at the width their dimension needs (``int32`` up to 2^31 rows,
    :func:`~repro.core.types.reference_type`), and a write past that
    width widens the column as for any integer column.
    """

    def __init__(self, name: str, referenced_table: str, data=None,
                 capacity: int = 0):
        # a signed integer *data* keeps its type, anything else is
        # stored at int64; an empty column starts at int32
        dtype = reference_type(0)
        if data is not None:
            kind = np.asarray(data).dtype
            dtype = DataType(kind.name) if kind.kind == "i" else DataType.INT64
        super().__init__(name, dtype, data=data, capacity=capacity)
        self.referenced_table = referenced_table

    @classmethod
    def wrap_air(cls, name: str, referenced_table: str,
                 data: np.ndarray) -> "AIRColumn":
        """Zero-copy constructor (see :meth:`FixedColumn.wrap`); the
        column's type is *data*'s."""
        column = cls.wrap(name, DataType(data.dtype.name), data)
        column.referenced_table = referenced_table
        return column

    def __repr__(self) -> str:
        return (
            f"AIRColumn({self.name!r} -> {self.referenced_table!r}, n={len(self)})"
        )


class DictColumn(Column):
    """A dictionary-compressed column: int32 codes + a value dictionary.

    The dictionary is a reference table and the code array is effectively an
    AIR column pointing into it, so equality predicates reduce to integer
    comparison on codes and decoding is an array lookup.
    """

    def __init__(self, name: str, values: Optional[Sequence] = None,
                 dictionary: Optional[Dictionary] = None, codes=None):
        self.name = name
        self.dtype = DataType.STRING
        if codes is not None:
            if dictionary is None:
                raise StorageError("codes without a dictionary")
            self.dictionary = dictionary
            self._codes = FixedColumn(name + "$codes", DataType.INT32, data=codes)
        else:
            self.dictionary = dictionary if dictionary is not None else Dictionary()
            self._codes = FixedColumn(name + "$codes", DataType.INT32)
            if values is not None:
                self.append(values)

    @classmethod
    def wrap(cls, name: str, dictionary: Dictionary,
             codes: np.ndarray) -> "DictColumn":
        """Zero-copy constructor over an existing code array."""
        column = cls.__new__(cls)
        column.name = name
        column.dtype = DataType.STRING
        column.dictionary = dictionary
        column._codes = FixedColumn.wrap(name + "$codes", DataType.INT32, codes)
        return column

    def __len__(self) -> int:
        return len(self._codes)

    def codes(self) -> np.ndarray:
        """The raw compression codes (array indexes into the dictionary)."""
        return self._codes.values()

    def values(self) -> np.ndarray:
        return self.dictionary.decode(self._codes.values())

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self.dictionary.decode(self._codes.take(positions))

    def take_codes(self, positions: np.ndarray) -> np.ndarray:
        """Positional gather of raw codes (no decode)."""
        return self._codes.take(positions)

    def get(self, position: int):
        return self.dictionary.decode_one(int(self._codes.get(position)))

    def append(self, values: Sequence) -> None:
        self._codes.append(self.dictionary.encode(values))

    def put(self, positions: np.ndarray, values: Sequence) -> None:
        self._codes.put(positions, self.dictionary.encode(values))

    def share(self, image: "DictColumn") -> None:
        """Back the codes with *image*'s (see :meth:`FixedColumn.share`)."""
        self._codes.share(image._codes)

    def reorder(self, mapping: np.ndarray) -> None:
        self._codes.reorder(mapping)

    @property
    def cardinality(self) -> int:
        """Number of distinct values ever stored (dictionary size)."""
        return len(self.dictionary)

    @property
    def nbytes(self) -> int:
        return self._codes.nbytes + self.dictionary.nbytes

    def __repr__(self) -> str:
        return (
            f"DictColumn({self.name!r}, n={len(self)}, "
            f"cardinality={self.cardinality})"
        )


class StringColumn(Column):
    """Variable-length strings stored out-of-line in a heap.

    The column array holds int64 heap addresses, matching the paper's
    varchar layout ("we store its contents in a dynamically allocated
    memory space and keep their addresses in the array").  In-place update
    is possible because only the address cell changes.
    """

    def __init__(self, name: str, values: Optional[Sequence] = None):
        self.name = name
        self.dtype = DataType.STRING
        self._heap: list[str] = []
        self._addr = FixedColumn(name + "$addr", DataType.INT64)
        if values is not None:
            self.append(values)

    @classmethod
    def wrap(cls, name: str, heap: list,
             addresses: np.ndarray) -> "StringColumn":
        """Zero-copy constructor over an existing address array.

        The heap itself is variable-width Python data and is always a
        private copy; only the fixed-width address array is shareable.
        """
        column = cls.__new__(cls)
        column.name = name
        column.dtype = DataType.STRING
        column._heap = list(heap)
        column._addr = FixedColumn.wrap(name + "$addr", DataType.INT64,
                                        addresses)
        return column

    def __len__(self) -> int:
        return len(self._addr)

    def values(self) -> np.ndarray:
        heap = np.empty(len(self._heap), dtype=object)
        heap[:] = self._heap
        return heap[self._addr.values()] if len(self._heap) else np.empty(0, dtype=object)

    def take(self, positions: np.ndarray) -> np.ndarray:
        heap = np.empty(len(self._heap), dtype=object)
        heap[:] = self._heap
        return heap[self._addr.take(positions)]

    def get(self, position: int):
        return self._heap[int(self._addr.get(position))]

    def append(self, values: Sequence) -> None:
        base = len(self._heap)
        values = list(values)
        self._heap.extend(str(v) for v in values)
        self._addr.append(np.arange(base, base + len(values), dtype=np.int64))

    def put(self, positions: np.ndarray, values: Sequence) -> None:
        values = list(values)
        base = len(self._heap)
        self._heap.extend(str(v) for v in values)
        self._addr.put(positions, np.arange(base, base + len(values), dtype=np.int64))

    def share(self, image: "StringColumn") -> None:
        """Back the heap addresses with *image*'s (see
        :meth:`FixedColumn.share`); the heap stays private."""
        self._addr.share(image._addr)

    def reorder(self, mapping: np.ndarray) -> None:
        self._addr.reorder(mapping)

    @property
    def nbytes(self) -> int:
        return self._addr.nbytes + sum(len(s) for s in self._heap)

    def __repr__(self) -> str:
        return f"StringColumn({self.name!r}, n={len(self)})"


def make_column(name: str, values: Sequence, dict_threshold: float = 0.1,
                dtype: Optional[DataType] = None) -> Column:
    """Build the appropriate column layout for *values*.

    Strings become :class:`DictColumn` when their distinct-value ratio is
    below *dict_threshold* (the paper dictionary-compresses low-cardinality
    columns such as ``c_region``), otherwise :class:`StringColumn`.
    """
    from .types import dtype_for_values

    inferred = dtype if dtype is not None else dtype_for_values(values)
    if inferred != DataType.STRING:
        return FixedColumn(name, inferred, data=np.asarray(values))
    values = list(values)
    distinct = len(set(values))
    if len(values) == 0 or distinct <= max(2, dict_threshold * len(values)):
        return DictColumn(name, values=values)
    return StringColumn(name, values=values)


def make_coded_column(name: str, codes: np.ndarray, pool: Sequence,
                      dict_threshold: float = 0.1) -> Column:
    """``make_column(name, pool[codes])``, built from the codes.

    *pool* holds distinct strings and *codes* index it.  When the column
    is dictionary-compressed, the dictionary holds the pool values that
    occur in first-seen order and the codes are remapped to match: the
    same dictionary and codes as encoding ``pool[codes]`` one value at a
    time, without a string per row.
    """
    codes = np.asarray(codes)
    present, first = np.unique(codes, return_index=True)
    if not len(codes) or len(present) > max(2, dict_threshold * len(codes)):
        return make_column(name, np.asarray(pool, dtype=object)[codes],
                           dict_threshold, DataType.STRING)
    seen = present[np.argsort(first)]
    remap = np.empty(len(pool), dtype=np.int32)
    remap[seen] = np.arange(len(seen), dtype=np.int32)
    return DictColumn.wrap(name, Dictionary.distinct(pool[i] for i in seen),
                           remap[codes])
