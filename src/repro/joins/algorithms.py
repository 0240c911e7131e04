"""PK–FK join algorithms compared in the paper's Table 2 and Fig. 8.

Each algorithm maps every fact-side foreign key to the matching dimension
row position (-1 when unmatched).  The AIR join is the paper's
contribution: the foreign key *is* the position, so joining degenerates to
a bounds check (or to nothing at all when the reference is trusted).

* :func:`air_join` — positional; no hash table, no comparison.
* :func:`npo_hash_join` — no-partitioning shared hash table [7].
* :func:`pro_hash_join` — parallel radix partitioning join [7]: both sides
  are radix-partitioned on the key's low bits so each per-partition hash
  table stays cache-resident, then partitions are joined independently.
* :func:`sort_merge_join` — m-way sort-merge [13] (argsort + galloping
  merge via ``searchsorted``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from .hashtable import IntHashTable


@dataclass
class JoinResult:
    """Outcome of a PK–FK join.

    ``dim_positions[i]`` is the dimension array index matched by fact row
    *i*, or -1 if the key has no match.
    """

    dim_positions: np.ndarray

    @property
    def matches(self) -> int:
        """Number of fact rows that found a dimension partner."""
        return int((self.dim_positions >= 0).sum())

    def count(self) -> int:
        """``select count(*)`` of the join (inner-join cardinality)."""
        return self.matches


def air_join(fact_refs: np.ndarray, dim_size: int,
             validate: bool = True) -> JoinResult:
    """Array-index-reference join: the FK column already holds positions.

    With ``validate=False`` this is a no-op (the storage model guarantees
    referential integrity); with ``validate=True`` out-of-range references
    are reported as misses, which is the honest comparison point for the
    microbenchmarks.  The positions keep the width they are stored at
    (an AIR column's ``int32``): widening them would copy the column.
    """
    fact_refs = np.ascontiguousarray(fact_refs)
    if fact_refs.dtype.kind not in "iu":
        fact_refs = fact_refs.astype(np.int64)
    if not validate:
        return JoinResult(fact_refs)
    ok = (fact_refs >= 0) & (fact_refs < dim_size)
    return JoinResult(np.where(ok, fact_refs, -1))


def npo_hash_join(fact_keys: np.ndarray, dim_keys: np.ndarray) -> JoinResult:
    """No-partitioning hash join: one shared table over the dimension."""
    table = IntHashTable(dim_keys)
    return JoinResult(table.probe(fact_keys))


def pro_hash_join(fact_keys: np.ndarray, dim_keys: np.ndarray,
                  radix_bits: int | None = None,
                  partition_target: int = 16384) -> JoinResult:
    """Parallel radix join: partition, then per-partition hash joins.

    ``radix_bits`` defaults to the smallest number of bits that brings the
    average dimension partition under *partition_target* keys, so each
    per-partition hash table is cache-resident (the PRO design point).
    """
    fact_keys = np.ascontiguousarray(fact_keys, dtype=np.int64)
    dim_keys = np.ascontiguousarray(dim_keys, dtype=np.int64)
    if radix_bits is None:
        radix_bits = 0
        while (len(dim_keys) >> radix_bits) > partition_target and radix_bits < 16:
            radix_bits += 1
    nparts = 1 << radix_bits
    mask = np.int64(nparts - 1)

    result = np.full(len(fact_keys), -1, dtype=np.int64)
    if len(dim_keys) == 0 or len(fact_keys) == 0:
        return JoinResult(result)

    # Partitioning pass (the PRO overhead): bucket both inputs by low bits.
    dim_part = (dim_keys & mask).astype(np.int64)
    fact_part = (fact_keys & mask).astype(np.int64)
    dim_order = np.argsort(dim_part, kind="stable")
    fact_order = np.argsort(fact_part, kind="stable")
    dim_bounds = np.searchsorted(dim_part[dim_order], np.arange(nparts + 1))
    fact_bounds = np.searchsorted(fact_part[fact_order], np.arange(nparts + 1))

    for p in range(nparts):
        d0, d1 = dim_bounds[p], dim_bounds[p + 1]
        f0, f1 = fact_bounds[p], fact_bounds[p + 1]
        if f0 == f1:
            continue
        fact_idx = fact_order[f0:f1]
        if d0 == d1:
            continue
        dim_idx = dim_order[d0:d1]
        table = IntHashTable(dim_keys[dim_idx], values=dim_idx)
        result[fact_idx] = table.probe(fact_keys[fact_idx])
    return JoinResult(result)


def sort_merge_join(fact_keys: np.ndarray, dim_keys: np.ndarray) -> JoinResult:
    """Sort-merge join: sort the dimension, binary-merge the fact side."""
    fact_keys = np.ascontiguousarray(fact_keys, dtype=np.int64)
    dim_keys = np.ascontiguousarray(dim_keys, dtype=np.int64)
    if len(dim_keys) == 0:
        return JoinResult(np.full(len(fact_keys), -1, dtype=np.int64))
    order = np.argsort(dim_keys, kind="stable")
    sorted_keys = dim_keys[order]
    if len(sorted_keys) > 1 and (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise ExecutionError("sort-merge join requires unique dimension keys")
    slots = np.searchsorted(sorted_keys, fact_keys)
    slots = np.clip(slots, 0, len(sorted_keys) - 1)
    hit = sorted_keys[slots] == fact_keys
    return JoinResult(np.where(hit, order[slots], -1).astype(np.int64))


ALGORITHMS = {
    "AIR": air_join,
    "NPO": npo_hash_join,
    "PRO": pro_hash_join,
    "SORT_MERGE": sort_merge_join,
}
