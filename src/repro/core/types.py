"""Logical data types of the A-Store storage model.

A-Store is array oriented: every column is backed by a fixed-width NumPy
array, except strings, which live in a heap addressed by a fixed-width
array (the paper stores varchar contents in dynamically allocated memory and
keeps their addresses in the column array).
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import SchemaError


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"  # stored as int32 days since 1970-01-01

    @property
    def numpy_dtype(self) -> np.dtype:
        """The physical NumPy dtype backing this logical type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        """True for types on which arithmetic aggregation is defined."""
        return self in INTEGER_TYPES or self == DataType.FLOAT64

    @property
    def itemsize(self) -> int:
        """Bytes per value in the backing array."""
        return self.numpy_dtype.itemsize


_NUMPY_DTYPES = {
    DataType.INT8: np.dtype(np.int8),
    DataType.INT16: np.dtype(np.int16),
    DataType.INT32: np.dtype(np.int32),
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    # string columns keep int64 heap addresses in their array
    DataType.STRING: np.dtype(np.int64),
    DataType.DATE: np.dtype(np.int32),
}

#: the integer types, narrowest first
INTEGER_TYPES = (DataType.INT8, DataType.INT16, DataType.INT32, DataType.INT64)


def narrowest_int_type(lo: int, hi: int) -> DataType:
    """The narrowest integer type that holds every value in ``[lo, hi]``.

    Raises :class:`SchemaError` when not even ``int64`` does.
    """
    for dtype in INTEGER_TYPES:
        info = np.iinfo(dtype.numpy_dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    raise SchemaError(f"integer range [{lo}, {hi}] does not fit in int64")


def reference_type(rows: int) -> DataType:
    """The storage type of an AIR column into a table of *rows* rows:
    ``int32``, or ``int64`` when a position could pass ``int32``'s
    range.  Narrower types are not used: every gather casts its index to
    ``intp`` a slice at a time (:func:`repro.core.column.take_at`), and
    ``int32`` is the width that cast was measured at."""
    return narrowest_int_type(np.iinfo(np.int32).min, max(rows, 0))


def dtype_for_values(values) -> DataType:
    """Infer a :class:`DataType` from a NumPy array or Python sequence.

    Raises :class:`SchemaError` for unsupported value kinds.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in ("U", "S", "O"):
        return DataType.STRING
    if arr.dtype.kind == "f":
        return DataType.FLOAT64
    if arr.dtype.kind in ("i", "u"):
        if arr.dtype.itemsize <= 4:
            return DataType.INT32
        return DataType.INT64
    if arr.dtype.kind == "b":
        return DataType.INT32
    raise SchemaError(f"cannot infer column type from dtype {arr.dtype!r}")
