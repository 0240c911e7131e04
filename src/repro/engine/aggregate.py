"""Array-based and hash-based column-wise aggregation (Section 4.3).

*Array-based* aggregation scatters measures into a dense aggregation array
addressed by the Measure Index (``np.bincount`` / ``ufunc.at`` — positional
addressing, no key comparisons).  *Hash-based* aggregation compacts the
observed Measure Index values first; when the observed code domain is
small relative to the selection it skips the sort-based compaction
(``np.unique``'s sort **and** its inverse-building second pass) and
scatters over offset codes directly — the offsets live in a scratch-pool
buffer, so the common morsel pays no allocation either.  Wide, sparse
domains keep the sort-based grouping, the vectorized stand-in for a hash
table whose key-ordering cost per selected row is exactly the overhead
the paper's array variant avoids.

Both produce an :class:`AggregationState` that merges element-wise, so the
multicore path (Section 5) aggregates partitions independently and
combines at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ExecutionError
from ..plan.binder import AggSpec
from .scratch import local_pool

#: Scratch-pool slot reserved for offset group codes (bool masks use the
#: default slots of the same pool).
_CODES_SLOT = 7


@dataclass
class AggregationState:
    """Partial aggregates over a (dense or compacted) group domain.

    ``group_ids`` is ``None`` for the dense array layout (group *g* lives
    at index *g*) and holds the sorted observed Measure Index values for
    the hash layout.
    """

    specs: Sequence[AggSpec]
    ngroups: int
    counts: np.ndarray
    sums: Dict[str, np.ndarray] = field(default_factory=dict)
    mins: Dict[str, np.ndarray] = field(default_factory=dict)
    maxs: Dict[str, np.ndarray] = field(default_factory=dict)
    int_valued: Dict[str, bool] = field(default_factory=dict)
    group_ids: Optional[np.ndarray] = None

    @property
    def is_dense(self) -> bool:
        return self.group_ids is None

    def merge(self, other: "AggregationState") -> "AggregationState":
        """Combine two partial states (used by the parallel merge)."""
        if self.is_dense != other.is_dense:
            raise ExecutionError("cannot merge dense and sparse agg states")
        if self.is_dense:
            if self.ngroups != other.ngroups:
                raise ExecutionError("dense agg state size mismatch")
            merged = AggregationState(
                specs=self.specs, ngroups=self.ngroups,
                counts=self.counts + other.counts,
                int_valued=self.int_valued,
            )
            for name in self.sums:
                merged.sums[name] = self.sums[name] + other.sums[name]
            for name in self.mins:
                merged.mins[name] = np.minimum(self.mins[name], other.mins[name])
            for name in self.maxs:
                merged.maxs[name] = np.maximum(self.maxs[name], other.maxs[name])
            return merged
        ids = np.concatenate([self.group_ids, other.group_ids])
        uniq, inverse = np.unique(ids, return_inverse=True)
        merged = AggregationState(
            specs=self.specs, ngroups=len(uniq),
            counts=np.bincount(inverse, weights=np.concatenate(
                [self.counts, other.counts]), minlength=len(uniq)),
            int_valued=self.int_valued, group_ids=uniq,
        )
        for name in self.sums:
            merged.sums[name] = _sum(
                np.concatenate([self.sums[name], other.sums[name]]),
                inverse, len(uniq))
        for name in self.mins:
            merged.mins[name] = _extreme(
                np.minimum,
                np.concatenate([self.mins[name], other.mins[name]]),
                inverse, len(uniq))
        for name in self.maxs:
            merged.maxs[name] = _extreme(
                np.maximum,
                np.concatenate([self.maxs[name], other.maxs[name]]),
                inverse, len(uniq))
        return merged


def array_aggregate(specs: Sequence[AggSpec],
                    measures: Dict[str, np.ndarray],
                    codes: np.ndarray, ngroups: int) -> AggregationState:
    """Aggregate into a dense array addressed by the Measure Index."""
    counts = np.bincount(codes, minlength=ngroups).astype(np.float64)
    state = AggregationState(specs=specs, ngroups=ngroups, counts=counts)
    _accumulate(state, specs, measures, codes, ngroups)
    return state


def hash_aggregate(specs: Sequence[AggSpec],
                   measures: Dict[str, np.ndarray],
                   codes: np.ndarray) -> AggregationState:
    """Aggregate after compacting the observed group ids (hash stand-in).

    When the observed code range is already dense — ``max - min + 1``
    not much larger than the number of rows — the per-morsel
    ``np.unique`` sort and its inverse-building second pass are skipped
    entirely: offset codes (written into a scratch buffer) address the
    scatter directly, and empty cells are dropped by ``finalize`` as
    usual.  Sparse/huge domains keep the sort-based compaction.
    """
    n = len(codes)
    if n:
        lo = int(codes.min())
        hi = int(codes.max())
        domain = hi - lo + 1
        if domain <= max(1024, 4 * n):
            if lo == 0 and codes.dtype == np.int64:
                offsets = codes
            else:
                offsets = np.subtract(
                    codes, lo, out=local_pool().take(n, np.int64,
                                                     slot=_CODES_SLOT),
                    casting="unsafe")
            counts = np.bincount(offsets, minlength=domain).astype(np.float64)
            state = AggregationState(
                specs=specs, ngroups=domain, counts=counts,
                group_ids=np.arange(lo, hi + 1, dtype=np.int64))
            _accumulate(state, specs, measures, offsets, domain)
            return state
    uniq, inverse = np.unique(codes, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    state = AggregationState(specs=specs, ngroups=len(uniq), counts=counts,
                             group_ids=uniq)
    _accumulate(state, specs, measures, inverse, len(uniq))
    return state


def _accumulate(state: AggregationState, specs, measures, codes, ngroups):
    for spec in specs:
        if spec.func == "COUNT":
            continue  # served by state.counts
        values = measures[spec.name]
        state.int_valued[spec.name] = values.dtype.kind in ("i", "u")
        if spec.func in ("SUM", "AVG"):
            state.sums[spec.name] = _sum(values, codes, ngroups)
        elif spec.func == "MIN":
            state.mins[spec.name] = _extreme(np.minimum, values, codes,
                                             ngroups)
        elif spec.func == "MAX":
            state.maxs[spec.name] = _extreme(np.maximum, values, codes,
                                             ngroups)
        else:
            raise ExecutionError(f"unsupported aggregate {spec.func}")


def _sum(values: np.ndarray, codes: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group sums: exact int64 for integer values (a float64
    accumulator rounds above 2**53), ``bincount`` for the rest.  The
    values are cast before the scatter: a mixed-dtype ``add.at`` is
    over 20x slower than a same-dtype one."""
    if values.dtype.kind in ("i", "u"):
        out = np.zeros(ngroups, dtype=np.int64)
        np.add.at(out, codes, values.astype(np.int64, copy=False))
        return out
    return np.bincount(codes, weights=values.astype(np.float64, copy=False),
                       minlength=ngroups)


def _extreme(ufunc, values: np.ndarray, codes: np.ndarray,
             ngroups: int) -> np.ndarray:
    """Per-group MIN (``np.minimum``) or MAX (``np.maximum``), int64 for
    integer values, float64 otherwise; empty groups hold the identity."""
    if values.dtype.kind in ("i", "u"):
        values = values.astype(np.int64, copy=False)
        info = np.iinfo(np.int64)
        identity = info.max if ufunc is np.minimum else info.min
    else:
        values = values.astype(np.float64, copy=False)
        identity = np.inf if ufunc is np.minimum else -np.inf
    out = np.full(ngroups, identity, dtype=values.dtype)
    ufunc.at(out, codes, values)
    return out


def finalize(state: AggregationState) -> tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Produce final per-group outputs.

    Returns ``(present_group_ids, {output_name: values})`` where
    ``present_group_ids`` are the Measure Index values of non-empty groups
    (dense empty cells are dropped here, matching the paper's note that
    the aggregation array may be sparse).
    """
    present = np.flatnonzero(state.counts > 0)
    if state.group_ids is not None:
        ids = state.group_ids[present]
    else:
        ids = present
    out: Dict[str, np.ndarray] = {}
    for spec in state.specs:
        if spec.func == "COUNT":
            out[spec.name] = state.counts[present].astype(np.int64)
        elif spec.func == "AVG":
            out[spec.name] = state.sums[spec.name][present] / state.counts[present]
        else:
            values = {"SUM": state.sums, "MIN": state.mins,
                      "MAX": state.maxs}[spec.func][spec.name][present]
            if state.int_valued.get(spec.name):
                values = values.astype(np.int64, copy=False)
            out[spec.name] = values
    return ids, out
