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
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import StorageError
from .dictionary import Dictionary
from .types import DataType

_GROWTH_FACTOR = 1.5
_MIN_CAPACITY = 16


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
    """A fixed-width column backed by a growable NumPy array."""

    def __init__(self, name: str, dtype: DataType, data=None, capacity: int = 0):
        if dtype == DataType.STRING:
            raise StorageError("use StringColumn or DictColumn for strings")
        self.name = name
        self.dtype = dtype
        np_dtype = dtype.numpy_dtype
        if data is not None:
            data = np.ascontiguousarray(data, dtype=np_dtype)
            self._n = len(data)
            cap = max(capacity, self._n, _MIN_CAPACITY)
            self._data = np.empty(cap, dtype=np_dtype)
            self._data[: self._n] = data
        else:
            self._n = 0
            self._data = np.empty(max(capacity, _MIN_CAPACITY), dtype=np_dtype)

    @classmethod
    def wrap(cls, name: str, dtype: DataType, data: np.ndarray) -> "FixedColumn":
        """Zero-copy constructor over an existing backing array.

        Used by the image rebuild (*data* typically a view into a mapped
        database image) and by loaders that hand over a fresh
        array they no longer use (the SSB generator, ``Database.airify``):
        *data* becomes the backing array as-is, with no reserved tail
        capacity.  Appending to a wrapped column reallocates into private
        memory.
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
        return self._data[: self._n][positions]

    def get(self, position: int):
        if not 0 <= position < self._n:
            raise StorageError(f"position {position} out of range")
        return self._data[position].item()

    def append(self, values: Sequence) -> None:
        values = np.asarray(values, dtype=self.dtype.numpy_dtype)
        self._ensure(self._n + len(values))
        self._data[self._n : self._n + len(values)] = values
        self._n += len(values)

    def put(self, positions: np.ndarray, values: Sequence) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) and (positions.min() < 0 or positions.max() >= self._n):
            raise StorageError("update position out of range")
        self._data[positions] = np.asarray(values, dtype=self.dtype.numpy_dtype)

    def reorder(self, mapping: np.ndarray) -> None:
        # one gather straight into the new buffer: consolidation has
        # already checked *mapping* lists valid rows, and a bounds-checked
        # take would stage through a temporary of the same size
        n = len(mapping)
        data = np.empty(max(int(n * _GROWTH_FACTOR), _MIN_CAPACITY),
                        dtype=self.dtype.numpy_dtype)
        np.take(self._data[: self._n], mapping, out=data[:n], mode="clip")
        self._data, self._n = data, n

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    def _ensure(self, needed: int) -> None:
        if needed <= len(self._data):
            return
        cap = max(int(needed * _GROWTH_FACTOR), _MIN_CAPACITY)
        grown = np.empty(cap, dtype=self._data.dtype)
        grown[: self._n] = self._data[: self._n]
        self._data = grown

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.dtype.value}, n={self._n})"


class AIRColumn(FixedColumn):
    """A foreign-key column storing array indexes of the referenced table.

    Joining through an AIRColumn is a positional gather on the referenced
    array family — no hash table, no comparison.
    """

    def __init__(self, name: str, referenced_table: str, data=None, capacity: int = 0):
        super().__init__(name, DataType.INT64, data=data, capacity=capacity)
        self.referenced_table = referenced_table

    @classmethod
    def wrap_air(cls, name: str, referenced_table: str,
                 data: np.ndarray) -> "AIRColumn":
        """Zero-copy constructor (see :meth:`FixedColumn.wrap`)."""
        column = cls.wrap(name, DataType.INT64, data)
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
