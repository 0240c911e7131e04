"""Packed bit vectors.

A-Store uses bit vectors for *predicate filters* (one bit per dimension
tuple; "1" means the tuple satisfies the dimension predicates) and for
*deletion vectors* (lazy deletion, Section 4.4).  The packed representation
matters: the paper's cache argument (a 45 MB LLC holds a 377-million-bit
filter) only works because filters are bit-packed, and the optimizer here
uses :meth:`Bitmap.nbytes` for the same fit-in-cache decision.
"""

from __future__ import annotations

import numpy as np

from ..errors import StorageError

_WORD_BITS = 64


class Bitmap:
    """A fixed-length packed bit vector with vectorized bulk operations.

    Bits are stored little-endian within ``uint64`` words.  All bulk
    operations (AND/OR/NOT, population count, gather) are NumPy-vectorized.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    __slots__ = ("_words", "_nbits")

    def __init__(self, nbits: int, fill: bool = False):
        if nbits < 0:
            raise StorageError(f"bitmap size must be >= 0, got {nbits}")
        self._nbits = nbits
        nwords = (nbits + _WORD_BITS - 1) // _WORD_BITS
        value = np.uint64(0xFFFFFFFFFFFFFFFF) if fill else np.uint64(0)
        self._words = np.full(nwords, value, dtype=np.uint64)
        if fill:
            self._mask_tail()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bool_array(cls, mask: np.ndarray) -> "Bitmap":
        """Pack a boolean array into a bitmap."""
        mask = np.asarray(mask, dtype=bool)
        bm = cls(len(mask))
        if len(mask):
            packed = np.packbits(mask, bitorder="little")
            pad = (-len(packed)) % 8
            if pad:
                packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
            bm._words = packed.view(np.uint64).copy()
        return bm

    @classmethod
    def from_indices(cls, indices: np.ndarray, nbits: int) -> "Bitmap":
        """Build a bitmap with the given bit positions set."""
        mask = np.zeros(nbits, dtype=bool)
        mask[np.asarray(indices, dtype=np.int64)] = True
        return cls.from_bool_array(mask)

    def copy(self) -> "Bitmap":
        """Return an independent copy of this bitmap."""
        out = Bitmap(self._nbits)
        out._words = self._words.copy()
        return out

    # -- size --------------------------------------------------------------

    def __len__(self) -> int:
        return self._nbits

    @property
    def nbytes(self) -> int:
        """Bytes of the packed representation (used by the cache model)."""
        return int(self._words.nbytes)

    # -- single-bit access -------------------------------------------------

    def set(self, i: int, value: bool = True) -> None:
        """Set or clear bit *i*."""
        self._check(i)
        word, bit = divmod(i, _WORD_BITS)
        if value:
            self._words[word] |= np.uint64(1) << np.uint64(bit)
        else:
            self._words[word] &= ~(np.uint64(1) << np.uint64(bit))

    def get(self, i: int) -> bool:
        """Return bit *i*."""
        self._check(i)
        word, bit = divmod(i, _WORD_BITS)
        return bool((self._words[word] >> np.uint64(bit)) & np.uint64(1))

    def __getitem__(self, i: int) -> bool:
        return self.get(i)

    # -- bulk access ---------------------------------------------------------

    def set_many(self, indices: np.ndarray, value: bool = True) -> None:
        """Set (or clear) every bit listed in *indices*."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return
        if indices.min() < 0 or indices.max() >= self._nbits:
            raise StorageError("bit index out of range")
        words, bits = np.divmod(indices, _WORD_BITS)
        masks = np.uint64(1) << bits.astype(np.uint64)
        if value:
            np.bitwise_or.at(self._words, words, masks)
        else:
            np.bitwise_and.at(self._words, words, ~masks)

    def test(self, indices: np.ndarray) -> np.ndarray:
        """Gather: return a boolean array of the bits at *indices*.

        This is the probe operation used during the universal-table scan:
        the fact table's AIR column supplies *indices* and the result says
        which fact tuples pass the dimension's predicate filter.
        """
        indices = np.asarray(indices, dtype=np.int64)
        words, bits = np.divmod(indices, _WORD_BITS)
        return ((self._words[words] >> bits.astype(np.uint64)) & np.uint64(1)).astype(bool)

    def to_bool_array(self) -> np.ndarray:
        """Unpack into a boolean array of length ``len(self)``."""
        if self._nbits == 0:
            return np.zeros(0, dtype=bool)
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return bits[: self._nbits].astype(bool)

    def to_indices(self) -> np.ndarray:
        """Return the positions of all set bits, ascending."""
        return np.flatnonzero(self.to_bool_array()).astype(np.int64)

    def count(self) -> int:
        """Population count (number of set bits)."""
        return int(np.unpackbits(self._words.view(np.uint8)).sum())

    # -- logical operations --------------------------------------------------

    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_size(other)
        out = Bitmap(self._nbits)
        np.bitwise_and(self._words, other._words, out=out._words)
        return out

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_size(other)
        out = Bitmap(self._nbits)
        np.bitwise_or(self._words, other._words, out=out._words)
        return out

    def __invert__(self) -> "Bitmap":
        out = Bitmap(self._nbits)
        np.bitwise_not(self._words, out=out._words)
        out._mask_tail()
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._words, other._words)
        )

    def __repr__(self) -> str:
        return f"Bitmap(nbits={self._nbits}, set={self.count()})"

    # -- internals -----------------------------------------------------------

    def _check(self, i: int) -> None:
        if not 0 <= i < self._nbits:
            raise StorageError(f"bit index {i} out of range [0, {self._nbits})")

    def _check_same_size(self, other: "Bitmap") -> None:
        if self._nbits != other._nbits:
            raise StorageError(
                f"bitmap size mismatch: {self._nbits} vs {other._nbits}"
            )

    def _mask_tail(self) -> None:
        """Clear the unused bits of the last word."""
        tail = self._nbits % _WORD_BITS
        if tail and len(self._words):
            keep = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            self._words[-1] &= keep
