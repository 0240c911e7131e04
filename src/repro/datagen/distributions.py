"""Seeded distribution helpers shared by the benchmark data generators.

All generators draw from :func:`numpy.random.default_rng` so every dataset
is reproducible from ``(generator, scale, seed)``.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

import numpy as np


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """A deterministic generator for a named substream.

    Distinct streams (one per table/column group) keep the data stable when
    one table's generation logic changes.  The stream name is mixed in via
    a deterministic digest — ``hash()`` would vary with ``PYTHONHASHSEED``
    and make the generated data differ across processes.
    """
    mixed = np.random.SeedSequence([seed, zlib.crc32(stream.encode("utf-8"))])
    return np.random.default_rng(mixed)


def uniform_keys(rng: np.random.Generator, n: int, domain: int) -> np.ndarray:
    """*n* foreign keys uniformly distributed over ``[0, domain)``."""
    return rng.integers(0, domain, size=n, dtype=np.int64)


def value_pool(values: Iterable[str]) -> np.ndarray:
    """*values* as an object array: index it with drawn codes to build a
    string column without formatting one string per row."""
    values = list(values)
    pool = np.empty(len(values), dtype=object)
    pool[:] = values
    return pool


def choice_column(rng: np.random.Generator, n: int,
                  values: Sequence[str]) -> np.ndarray:
    """*n* draws (uniform) from a fixed value pool, as an object array."""
    return value_pool(values)[rng.integers(0, len(values), size=n)]


def scaled_rows(base: int, sf: float, minimum: int = 1) -> int:
    """Row count for a table whose SF=1 size is *base*."""
    return max(minimum, int(round(base * sf)))
