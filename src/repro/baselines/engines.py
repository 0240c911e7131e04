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
    BACKENDS,
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
from ..engine.sharding import (
    BaselineBoundQuery,
    acquire_shard_backend,
    baseline_filter_steps,
    fold_outcomes,
    merge_outcome_states,
    release_shard_backend,
    run_process_shards,
)
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

    ``backend`` names a :data:`repro.engine.operators.BACKENDS` entry;
    with ``"process"`` the bound baseline plan (semi-join masks + hash
    tables, both dimension-sized) ships to workers that shard the fact
    table horizontally over the exported database image — the same portable
    path the A-Store engine uses.  Engines that served process-backed
    queries hold an image and pool; release them with :meth:`close`.
    """

    name = "baseline"

    def __init__(self, db: Database, backend: str = "serial",
                 workers: int = 1):
        self.db = db
        self.backend = backend
        self.workers = workers
        self._shard_backend = None

    def close(self) -> None:
        """Release process-backend resources (worker pool + exported image)."""
        backend, self._shard_backend = self._shard_backend, None
        if backend is not None:
            release_shard_backend(backend)

    def __enter__(self) -> "BaselineEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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

        if not BACKENDS[self.backend].inline:
            gathered = self._gather_sharded(logical, dim_filters,
                                            hash_tables, stats)
        else:
            gathered = self._gather_inline(logical, dim_filters,
                                           hash_tables, nrows, stats)
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

        results = MorselDispatcher(self.backend).run(morsels, pipeline)
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

    def _gather_sharded(self, logical: LogicalPlan, dim_filters,
                        hash_tables, stats: ExecutionStats):
        """Ship the portable baseline plan to shard workers and merge."""
        plan = BaselineBoundQuery(
            shape=self.name, logical=logical, dim_filters=dim_filters,
            hash_tables=hash_tables, block_rows=self._block_rows())

        def pooled():
            backend = self._shard_backend
            if backend is not None and backend.is_stale(self.db):
                release_shard_backend(backend)
                backend = self._shard_backend = None
            if backend is None:
                self._shard_backend = acquire_shard_backend(self.db,
                                                            self.workers)
            return self._shard_backend.run(plan, nshards=self.workers)

        outcomes = run_process_shards(plan, self.db, self.workers, None,
                                      pooled)
        fold_outcomes(outcomes, stats, agg_labels=("gather",))
        return merge_outcome_states(outcomes)

    def _block_rows(self) -> int:
        """Shard-side morsel size (0 = one morsel per shard)."""
        return 0

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
        """Fact predicates, semi-join probes, then existence probes —
        shared with the portable baseline plan (same operator chain on
        every backend)."""
        return baseline_filter_steps(logical, dim_filters)

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

    def __init__(self, db: Database, block_rows: int = 65536,
                 backend: str = "serial", workers: int = 1):
        super().__init__(db, backend=backend, workers=workers)
        self.block_rows = block_rows

    def _block_rows(self) -> int:
        return self.block_rows

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
