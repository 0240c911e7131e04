"""Dictionary compression (Section 2 of the paper).

A-Store stores dictionaries in arrays and uses array indexes as compression
codes, so decompression is a positional array lookup.  A dictionary is in
effect a small reference table, and a dictionary-compressed column is a
foreign-key (AIR) column pointing into it.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import StorageError

_BUILD_LOCK = threading.Lock()


class Dictionary:
    """An append-only ordered dictionary of distinct values.

    Codes are assigned in first-seen order; code *i* decodes by indexing the
    value array at position *i* — exactly the paper's array-as-dictionary.
    """

    __slots__ = ("_values", "_codes")

    def __init__(self, values: Iterable = ()):  # noqa: D107 - trivial
        self._values: list = []
        self._codes: Optional[dict] = {}
        for v in values:
            self.encode_one(v)

    @classmethod
    def distinct(cls, values: Iterable) -> "Dictionary":
        """A dictionary of *values*, which must be distinct, in code
        order.  The value→code map is built on the first encode or
        lookup, not here: loading an image rebuilds every dictionary,
        and a query that only decodes never needs the map."""
        dictionary = cls.__new__(cls)
        dictionary._values = list(values)
        dictionary._codes = None
        return dictionary

    @property
    def _code_of(self) -> dict:
        codes = self._codes
        if codes is None:
            # built once: a reader building it must not replace the map
            # a concurrent writer has just added a value to
            with _BUILD_LOCK:
                if self._codes is None:
                    self._codes = {v: code
                                   for code, v in enumerate(self._values)}
                codes = self._codes
        return codes

    # -- encoding ------------------------------------------------------------

    def encode_one(self, value) -> int:
        """Return the code for *value*, assigning a new code if unseen."""
        code_of = self._code_of
        code = code_of.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            code_of[value] = code
        return code

    def encode(self, values: Sequence) -> np.ndarray:
        """Encode a sequence of values into an ``int32`` code array."""
        return np.fromiter(
            (self.encode_one(v) for v in values), dtype=np.int32, count=len(values)
        )

    def lookup(self, value) -> int:
        """Return the code for *value*, or -1 if it is not in the dictionary.

        Used for predicate rewriting: a predicate ``col = 'ASIA'`` on a
        dictionary column becomes an integer comparison on the codes.
        """
        return self._code_of.get(value, -1)

    def lookup_many(self, values: Sequence) -> np.ndarray:
        """Vectorized :meth:`lookup` (unknown values map to -1)."""
        return np.fromiter(
            (self._code_of.get(v, -1) for v in values),
            dtype=np.int32,
            count=len(values),
        )

    # -- decoding ------------------------------------------------------------

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Decode a code array back to values (array-indexed lookup)."""
        codes = np.asarray(codes)
        if len(self._values) == 0:
            if len(codes):
                raise StorageError("decode from an empty dictionary")
            return np.empty(0, dtype=object)
        value_array = np.empty(len(self._values), dtype=object)
        value_array[:] = self._values
        return value_array[codes]

    def decode_one(self, code: int):
        """Decode a single code."""
        if not 0 <= code < len(self._values):
            raise StorageError(f"dictionary code {code} out of range")
        return self._values[code]

    # -- introspection ---------------------------------------------------------

    @property
    def values(self) -> list:
        """All distinct values in code order (do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value) -> bool:
        return value in self._code_of

    @property
    def nbytes(self) -> int:
        """Rough size estimate of the dictionary payload."""
        return sum(
            len(v) if isinstance(v, str) else 8 for v in self._values
        ) + 8 * len(self._values)

    def __repr__(self) -> str:
        return f"Dictionary(size={len(self)})"
