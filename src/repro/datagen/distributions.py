"""Seeded distribution helpers shared by the benchmark data generators.

All generators draw from :func:`numpy.random.default_rng` so every dataset
is reproducible from ``(generator, scale, seed)``.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from ..core.column import empty_buffer


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """A deterministic generator for a named substream.

    Distinct streams (one per table/column group) keep the data stable when
    one table's generation logic changes.  The stream name is mixed in via
    a deterministic digest — ``hash()`` would vary with ``PYTHONHASHSEED``
    and make the generated data differ across processes.
    """
    mixed = np.random.SeedSequence([seed, zlib.crc32(stream.encode("utf-8"))])
    return np.random.default_rng(mixed)


#: rows per call when a column is drawn slice by slice into its buffer
_DRAW_SLICE = 1 << 16


def drawn(n: int, dtype, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """``draw(n)`` — a generator call given its size, such as
    ``lambda k: rng.integers(1, 51, k)`` — written slice by slice into a
    fresh :func:`~repro.core.column.empty_buffer` of *dtype*, so the
    full-size draw is never staged in a temporary.

    The values are those of the one full-size call: NumPy's bounded
    integers take whole 32- or 64-bit outputs, a half-used 64-bit output
    stays buffered in the bit generator across calls, and uniform
    doubles take one output each (the generator digests in the tests
    pin this)."""
    buffer = empty_buffer(n, dtype)
    for start in range(0, n, _DRAW_SLICE):
        stop = min(start + _DRAW_SLICE, n)
        buffer[start:stop] = draw(stop - start)
    return buffer


def uniform_keys(rng: np.random.Generator, n: int, domain: int) -> np.ndarray:
    """*n* foreign keys uniformly distributed over ``[0, domain)``."""
    return drawn(n, np.int64,
                 lambda k: rng.integers(0, domain, size=k, dtype=np.int64))


def serial_keys(n: int) -> np.ndarray:
    """The surrogate keys ``1 .. n``, written straight into the buffer
    their column adopts (in slices, so no key array is staged)."""
    keys = empty_buffer(n, np.int64)
    step = 1 << 20
    for start in range(0, n, step):
        stop = min(start + step, n)
        keys[start:stop] = np.arange(start + 1, stop + 1, dtype=np.int64)
    return keys


def scaled_rows(base: int, sf: float, minimum: int = 1) -> int:
    """Row count for a table whose SF=1 size is *base*."""
    return max(minimum, int(round(base * sf)))
