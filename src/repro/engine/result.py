"""Query results and per-stage execution statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ExecutionError


@dataclass
class ExecutionStats:
    """Timings and counters for one query execution.

    The three stage timers mirror the paper's Fig. 10 breakdown:
    leaf-table processing (predicate vectors + group vectors), fact scan
    (FK columns, filters, Measure Index), and aggregation (measure columns
    + the aggregation array / hash table).  ``operator_seconds`` breaks
    the same work down per physical operator (summed across morsels),
    and ``morsels`` counts how many morsels the dispatcher ran.

    ``cache_events`` records what the query cache did for this
    execution: per-tier ``*_hits``/``*_misses`` counters stamped on at
    compile time (``plan``/``leaf``/``axis``) plus ``result_hits`` when
    the serving tier answered outright — on a warm plan hit,
    ``leaf_seconds`` is the cache lookup, not a recompile.
    """

    variant: str = ""
    leaf_seconds: float = 0.0
    scan_seconds: float = 0.0
    aggregation_seconds: float = 0.0
    total_seconds: float = 0.0
    rows_scanned: int = 0
    rows_selected: int = 0
    groups: int = 0
    morsels: int = 0
    morsels_skipped: int = 0     # zone blocks proven empty, never run
    morsels_accepted: int = 0    # zone blocks proven all-pass (no probes)
    morsels_scanned: int = 0     # zone blocks consulted but run normally
    prune_gated: int = 0         # verdict passes bypassed by the cost gate
    filters_reordered: int = 0   # micro-adaptive order changes observed
    used_array_aggregation: bool = False
    shard_fallbacks: int = 0     # sharded runs degraded to serial (dead pool)
    filter_modes: Dict[str, str] = field(default_factory=dict)
    operator_seconds: Dict[str, float] = field(default_factory=dict)
    cache_events: Dict[str, int] = field(default_factory=dict)

    def clone(self) -> "ExecutionStats":
        """An independent copy (dict fields included) — what a cached
        result keeps, so no caller's stats object is shared with it."""
        copy = replace(self)
        copy.filter_modes = dict(self.filter_modes)
        copy.operator_seconds = dict(self.operator_seconds)
        copy.cache_events = dict(self.cache_events)
        return copy

    @property
    def selectivity(self) -> float:
        """Fraction of scanned rows surviving all predicates."""
        return self.rows_selected / self.rows_scanned if self.rows_scanned else 0.0

    def operator_breakdown(self) -> List[tuple]:
        """Per-operator ``(label, seconds)`` rows, slowest first."""
        return sorted(self.operator_seconds.items(),
                      key=lambda item: item[1], reverse=True)

    def cache_summary(self) -> str:
        """A compact ``tier hit/miss`` line (empty when nothing fired)."""
        if not self.cache_events:
            return ""
        parts = []
        for key in sorted(self.cache_events):
            parts.append(f"{key.replace('_', ' ')}={self.cache_events[key]}")
        return ", ".join(parts)


class QueryResult:
    """A finished query: named output columns plus execution statistics."""

    def __init__(self, column_order: Sequence[str],
                 columns: Dict[str, np.ndarray],
                 stats: ExecutionStats):
        self.column_order = list(column_order)
        self.columns = columns
        self.stats = stats

    def __len__(self) -> int:
        if not self.column_order:
            return 0
        return len(self.columns[self.column_order[0]])

    def column(self, name: str) -> np.ndarray:
        """One output column by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"no output column {name!r}") from None

    def rows(self) -> List[tuple]:
        """All rows as tuples, in output order."""
        arrays = [self.columns[name] for name in self.column_order]
        return [tuple(a[i].item() if hasattr(a[i], "item") else a[i]
                      for a in arrays) for i in range(len(self))]

    def to_dicts(self) -> List[dict]:
        """All rows as ``{column: value}`` dictionaries."""
        return [dict(zip(self.column_order, row)) for row in self.rows()]

    @property
    def frozen(self) -> bool:
        """True when every column array is read-only (a served result)."""
        return all(not values.flags.writeable
                   for values in self.columns.values()
                   if isinstance(values, np.ndarray))

    def freeze(self) -> "QueryResult":
        """A read-only copy for the serving tier.

        Column arrays are replaced by immutable views of the same
        buffers (zero-copy), and the column map *and statistics* are
        private copies, so a caller can neither write through a served
        array nor reach the cached copy through a shared dict or stats
        object.  Each serve hands out another :meth:`served_copy`,
        never this object's own ``columns`` dict.
        """
        frozen: Dict[str, np.ndarray] = {}
        for name, values in self.columns.items():
            view = values.view()
            view.flags.writeable = False
            frozen[name] = view
        return QueryResult(self.column_order, frozen, self.stats.clone())

    def served_copy(self, stats: ExecutionStats) -> "QueryResult":
        """A per-caller wrapper around this (frozen) result: shares the
        immutable column arrays but owns its column map, order list and
        statistics — concurrent callers can never observe each other's
        mutations of a served result."""
        return QueryResult(self.column_order, dict(self.columns), stats)

    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self) != 1 or len(self.column_order) != 1:
            raise ExecutionError(
                f"scalar() on a {len(self)}x{len(self.column_order)} result"
            )
        return self.rows()[0][0]

    def __repr__(self) -> str:
        return (
            f"QueryResult(rows={len(self)}, columns={self.column_order}, "
            f"total={self.stats.total_seconds * 1e3:.2f}ms)"
        )
