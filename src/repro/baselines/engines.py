"""The three comparison engines of the paper's Section 6.

Each models the execution style of one evaluated MMDB — but all three
are now *DAG shapes* over the shared physical operators of
:mod:`repro.engine.operators`, running on the same storage and with the
same expression/aggregation kernels as A-Store, so the measured deltas
isolate the execution-model differences:

* :class:`MaterializingEngine` (MonetDB-like) — operator-at-a-time with
  **full materialization**: a single whole-table morsel through an
  :class:`~repro.engine.operators.IntersectScan` — every predicate is
  evaluated over the whole column into a candidate OID list (no
  selection-vector short-circuit) and the lists are joined pairwise.
  This reproduces MonetDB's BAT-algebra cost profile, including its
  poor predicate-processing behaviour on wide scans (Tables 3–5).
* :class:`VectorizedPipelineEngine` (Vectorwise-like) — block-at-a-time
  pipeline: dimension predicates are pushed into semi-join reduction
  masks, and fixed-size fact morsels stream through the
  filter→probe→gather chain with an in-block selection vector.
* :class:`FusedEngine` (Hyper-like) — the same operator chain over one
  fused whole-table morsel (the Python analogue of a JIT-compiled
  pipeline): a single selection-vector scan with short-circuiting, hash
  joins resolved only for surviving rows.

All three aggregate with the sort-based hash-aggregation stand-in
(:class:`~repro.engine.operators.ValueGather` + ``value_grouping``), as
"traditional OLAP engines usually perform hash based grouping and
aggregation" (Section 4.3).  The dimension hops are hash-table probes
(:class:`~repro.baselines.common.HashJoinProvider`), not AIR gathers —
that is the variable the paper's comparison isolates.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core import Database
from ..engine.operators import (
    AIRProbe,
    Filter,
    FilterLike,
    IntersectScan,
    MaskFilter,
    Morsel,
    MorselDispatcher,
    Operator,
    PredicateFilter,
    ReorderState,
    ValueGather,
    merge_timings,
    value_grouping,
)
from ..engine.result import ExecutionStats, QueryResult
from ..errors import PlanError
from ..plan.binder import LogicalPlan
from .common import (
    Timer,
    assemble,
    bind_for_baseline,
    build_hash_tables,
    dim_pass_mask,
    fact_provider,
)


class BaselineEngine:
    """Common driver: bind, build the DAG shape, dispatch, assemble.

    Every baseline runs in process, one morsel after another through
    ``MorselDispatcher("serial")``, as the paper's Table 5 ran the
    engines it compares against: on one thread.
    """

    name = "baseline"

    def __init__(self, db: Database):
        self.db = db

    def query(self, query) -> QueryResult:
        """Execute a SQL string or parsed statement."""
        logical = bind_for_baseline(query, self.db)
        if logical.is_projection:
            raise PlanError(
                f"{self.name} implements SPJGA aggregation queries only")
        stats = ExecutionStats(variant=self.name)
        timer = Timer()
        result = self._execute(logical, stats, timer)
        stats.total_seconds = (stats.leaf_seconds + stats.scan_seconds
                               + stats.aggregation_seconds)
        return result

    def _execute(self, logical: LogicalPlan, stats: ExecutionStats,
                 timer: Timer) -> QueryResult:
        # fresh per query: observed pass-rates for micro-adaptive scans
        self._adapt = ReorderState()
        hash_tables = build_hash_tables(self.db, logical)
        nrows = self.db.table(logical.root).num_rows
        stats.rows_scanned = nrows

        # Leaf side: full predicate masks per first-level dimension
        # (semi-join reduction), wrapped as predicate vectors.
        dim_filters = {
            first_dim: PredicateFilter(
                dim_pass_mask(self.db, logical, first_dim, preds, hash_tables))
            for first_dim, preds in logical.dim_conjuncts.items()
        }
        stats.leaf_seconds = timer.lap()

        gathered = self._gather_inline(logical, dim_filters, hash_tables,
                                       nrows, stats)
        stats.rows_selected = gathered.selected
        timer.lap()

        axes, state = value_grouping(logical, gathered)
        stats.aggregation_seconds += timer.lap()
        stats.filters_reordered = self._adapt.reorders
        return assemble(logical, axes, state, stats)

    def _gather_inline(self, logical: LogicalPlan, dim_filters,
                       hash_tables, nrows: int, stats: ExecutionStats):
        """Run the engine's DAG shape in-process and merge gather states."""
        def rebind(positions):
            return fact_provider(self.db, logical, hash_tables, positions)

        morsels = self._morsels(logical, nrows, rebind)
        stats.morsels = len(morsels)

        def pipeline() -> List[Operator]:
            ops = self._shape(logical, dim_filters)
            ops.append(ValueGather(logical))
            return ops

        results = MorselDispatcher("serial").run(morsels, pipeline)
        merge_timings(stats, results)
        gathered = None
        for result in results:
            stats.scan_seconds += sum(
                seconds for label, seconds in result.timings.items()
                if not label.startswith("gather"))
            stats.aggregation_seconds += result.timings.get("gather", 0.0)
            for partial in result.finishes.values():
                gathered = (partial if gathered is None
                            else gathered.merge(partial))
        return gathered

    # -- the DAG shape each engine customizes -------------------------------

    def _morsels(self, logical: LogicalPlan, nrows: int,
                 rebind) -> List[Morsel]:
        """The morsel layout: whole-table by default."""
        base = self._base_mask(logical)
        positions = (np.flatnonzero(base) if base is not None
                     else np.arange(nrows, dtype=np.int64)).astype(np.int64)
        return [Morsel(positions, rebind(positions))]

    def _shape(self, logical: LogicalPlan,
               dim_filters) -> List[Operator]:
        """The scan-and-filter operator chain (selection-vector style)."""
        return list(self._filter_steps(logical, dim_filters))

    def _filter_steps(self, logical: LogicalPlan,
                      dim_filters) -> List[FilterLike]:
        """Fact predicates, semi-join probes, then existence probes."""
        steps: List[FilterLike] = [Filter(expr)
                                   for expr in logical.fact_conjuncts]
        for first_dim, pf in dim_filters.items():
            steps.append(AIRProbe(first_dim, "vector", pf))
        for first_dim in logical.first_level_dims:
            if first_dim not in dim_filters:
                steps.append(AIRProbe(first_dim, "exists"))
        return steps

    def _base_mask(self, logical: LogicalPlan) -> Optional[np.ndarray]:
        table = self.db.table(logical.root)
        return table.live_mask() if table.has_deletes else None


class MaterializingEngine(BaselineEngine):
    """MonetDB-like operator-at-a-time execution with full materialization."""

    name = "materializing"

    def _morsels(self, logical: LogicalPlan, nrows: int,
                 rebind) -> List[Morsel]:
        # One whole-table morsel whose provider scans full columns
        # (positions=None — no gather), the BAT-algebra access pattern.
        return [Morsel(np.arange(nrows, dtype=np.int64), rebind(None))]

    def _shape(self, logical: LogicalPlan,
               dim_filters) -> List[Operator]:
        steps: List[FilterLike] = []
        base = self._base_mask(logical)
        if base is not None:
            steps.append(MaskFilter(base, label="mask-filter[live]"))
        steps.extend(self._filter_steps(logical, dim_filters))
        return [IntersectScan(steps, adapt=self._adapt)]


class FusedEngine(BaselineEngine):
    """Hyper-like single fused pass with a selection vector."""

    name = "fused"

    # whole-table morsel + short-circuiting filter chain: the defaults


class VectorizedPipelineEngine(BaselineEngine):
    """Vectorwise-like block-at-a-time pipelined execution."""

    name = "vectorized-pipeline"

    def __init__(self, db: Database, block_rows: int = 65536):
        super().__init__(db)
        self.block_rows = block_rows

    def _morsels(self, logical: LogicalPlan, nrows: int,
                 rebind) -> List[Morsel]:
        base = self._base_mask(logical)
        morsels = []
        for start in range(0, nrows, self.block_rows):
            block = np.arange(start, min(start + self.block_rows, nrows),
                              dtype=np.int64)
            if base is not None:
                block = block[base[block]]
            morsels.append(Morsel(block, rebind(block)))
        return morsels or [Morsel(np.empty(0, dtype=np.int64),
                                  rebind(np.empty(0, dtype=np.int64)))]
