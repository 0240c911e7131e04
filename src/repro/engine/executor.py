"""The AIRScan executor: compiling queries to portable bound plans.

Queries run the paper's three-phase model (Section 3), expressed with the
shared physical layer of :mod:`repro.engine.operators`:

1. **Leaf processing** — :meth:`AStoreEngine._bind_leaf` evaluates
   dimension predicates once into packed :class:`PredicateFilter`
   vectors and builds the group axes (Sections 4.2, 4.3);
2. **Scan and filter** — the optimizer's ``PhysicalPlan.pipeline`` DAG
   is rewritten for the engine variant (row- vs column-wise, deferred
   vs short-circuiting filters) and, together with the leaf products,
   compiled into a picklable
   :class:`~repro.engine.sharding.BoundQuery`; the bound plan is then
   driven over horizontal fact-table morsels either in-process
   (``serial``/``thread`` backends, via the
   :class:`~repro.engine.operators.MorselDispatcher`) or across worker
   processes (``process`` backend, via
   :class:`~repro.engine.sharding.ProcessShardBackend` and the
   database image it exports for them);
3. **Aggregation** — per-morsel/per-shard partial aggregation states
   merge element-wise; ORDER BY/LIMIT run during result assembly.

The five query-processor variants of the paper's Table 6 are exposed as
:data:`VARIANTS` — each is a different *DAG rewrite* over the same
operators (see :func:`rewrite_for_options`), so the comparison isolates
the execution-model differences, not separate code paths.  The same
operators power the Section 6 baselines (:mod:`repro.baselines.engines`).

The executor itself only compiles bound plans, dispatches them, and
assembles results; all scanning, probing, and aggregating lives in the
operators, and everything a worker process needs lives in the bound plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Database
from ..errors import ExecutionError
from ..plan.binder import LogicalPlan, bind
from ..plan.optimizer import CacheModel, OpSpec, PhysicalPlan, optimize
from .aggregate import AggregationState, finalize
from .cache import (
    QueryCache,
    axis_nbytes,
    bound_nbytes,
    parse_cached,
    query_cache_for,
    query_fingerprint,
    table_stamps,
)
from .grouping import GroupAxis, build_axes, decode_group_columns
from .operators import (
    BACKENDS,
    MorselDispatcher,
    merge_timings,
    value_grouping,
)
from .orderby import sort_indices, top_k_indices
from .result import ExecutionStats, QueryResult
from .sharding import (
    BoundQuery,
    LeafProducts,
    PruneCounters,
    ShardBackendSlot,
    build_predicate_filter,
    fold_outcomes,
    merge_outcome_states,
)


@dataclass(frozen=True)
class EngineOptions:
    """Executor configuration (one row of the paper's Table 6).

    * ``scan`` — ``"column"`` for vector-based column-wise scan,
      ``"row"`` for chunked row-wise scan (full-tuple materialization);
    * ``use_predicate_filter`` — build packed predicate vectors for
      dimension predicates (Section 4.2);
    * ``use_array_aggregation`` — ``True``/``False``/``"auto"`` (the
      cache-model decision of Section 4.3);
    * ``workers`` — horizontal fact-table partitions (shards) processed
      independently and merged (Section 5); 1 = serial.  On the
      ``process`` backend N shards take N − 1 pool processes, because
      the coordinator runs shard 0 itself; ``workers=1`` runs inline,
      with no arena and no pool;
    * ``parallel_backend`` — a :data:`repro.engine.operators.BACKENDS`
      name: ``"serial"`` (the default, as on the CLI), ``"thread"``, or
      ``"process"`` (portable bound plans over an exported image);
    * ``morsel_rows`` — split each column-scan partition into fixed-size
      morsels (0 = one morsel per partition, the paper's layout);
    * ``chunk_rows`` — block size of the row-wise scan variants;
    * ``use_cache`` — consult the database's shared, mutation-stamped
      :class:`~repro.engine.cache.QueryCache` for compile artifacts
      (plans, leaf products, group axes);
    * ``cache_results`` — additionally serve exact query repeats from
      the cache's result tier (the serving tier; stamped like every
      other tier, so mutations invalidate instead of going stale);
    * ``result_ttl_seconds`` / ``result_cache_entries`` — bounds on the
      serving tier (0 = leave the shared cache's current bound);
    * ``use_pruning`` — block-level data skipping: zone maps decide per
      fact-table block whether any (or every) row can pass, so morsels
      that cannot contribute are never run;
    * ``zone_block_rows`` — force a zone-map block size (0 = per-table
      default, :func:`repro.core.statistics.default_zone_block_rows`).
    """

    scan: str = "column"
    use_predicate_filter: bool = True
    use_array_aggregation: object = "auto"
    cache: CacheModel = field(default_factory=CacheModel)
    workers: int = 1
    parallel_backend: str = "serial"
    morsel_rows: int = 0
    chunk_rows: int = 65536
    sample_size: int = 4096
    variant_name: str = "AIRScan_C_P_G"
    use_cache: bool = True
    cache_results: bool = False
    result_ttl_seconds: float = 0.0
    result_cache_entries: int = 0
    use_pruning: bool = True
    zone_block_rows: int = 0


#: The five query processors of the paper's Table 6.
VARIANTS: Dict[str, EngineOptions] = {
    "AIRScan_R": EngineOptions(
        scan="row", use_predicate_filter=False, use_array_aggregation=False,
        variant_name="AIRScan_R"),
    "AIRScan_R_P": EngineOptions(
        scan="row", use_predicate_filter=True, use_array_aggregation=False,
        variant_name="AIRScan_R_P"),
    "AIRScan_C": EngineOptions(
        scan="column", use_predicate_filter=False, use_array_aggregation=False,
        variant_name="AIRScan_C"),
    "AIRScan_C_P": EngineOptions(
        scan="column", use_predicate_filter=True, use_array_aggregation=False,
        variant_name="AIRScan_C_P"),
    "AIRScan_C_P_G": EngineOptions(
        scan="column", use_predicate_filter=True, use_array_aggregation="auto",
        variant_name="AIRScan_C_P_G"),
}


# -- variant DAG rewrites -----------------------------------------------------


def rewrite_for_options(pipeline: Sequence[OpSpec], options: EngineOptions,
                        logical: LogicalPlan) -> Tuple[OpSpec, ...]:
    """Rewrite the optimizer's operator DAG for an engine variant.

    The column-wise variants run the plan as emitted.  The row-wise
    variants (``AIRScan_R*``) rewrite the DAG into full-tuple form:
    a ``materialize`` node is inserted after the scan, every filter-like
    node is marked ``defer`` (each predicate sees every row of the
    block; a single ``apply-mask`` shrinks afterwards), and
    grouping/aggregation turn into value-based ``gather`` +
    ``value-aggregate`` nodes, since without group vectors the row
    engine groups on observed values.
    """
    if options.scan != "row" or logical.is_projection:
        return tuple(pipeline)
    specs: List[OpSpec] = []
    for spec in pipeline:
        if spec.op == "scan":
            specs.append(replace_spec(spec, detail=f"{spec.detail}:row"))
            specs.append(OpSpec("materialize", "referenced columns"))
        elif spec.op in ("filter", "air-probe"):
            specs.append(replace_spec(spec, detail=f"{spec.detail}:defer"))
        elif spec.op == "group-combine":
            specs.append(OpSpec("gather", spec.detail))
        elif spec.op == "aggregate":
            if not any(s.op == "gather" for s in specs):
                specs.append(OpSpec("gather", ""))
            specs.append(OpSpec("value-aggregate", "hash",
                                payload=spec.payload))
        else:
            specs.append(spec)
    # the deferred masks are applied once, before gathering
    gather_at = next(i for i, s in enumerate(specs) if s.op == "gather")
    specs.insert(gather_at, OpSpec("apply-mask"))
    return tuple(specs)


def replace_spec(spec: OpSpec, **changes) -> OpSpec:
    """A copy of *spec* with the given fields replaced."""
    return replace(spec, **changes)


class AStoreEngine:
    """A-Store's OLAP engine over a loaded (airified) database.

    An engine that has served ``process``-backed queries owns a
    exported database image and a worker pool; release them with
    :meth:`close` (or use the engine as a context manager).
    """

    def __init__(self, db: Database, options: Optional[EngineOptions] = None):
        self.db = db
        self.options = options or EngineOptions()
        self._slot = ShardBackendSlot(db, self.options.workers)
        # one cache is shared per database object, so every engine (and
        # variant) over the same data reuses dimension scans and axes
        self.cache: Optional[QueryCache] = (
            query_cache_for(db) if self.options.use_cache else None)
        if self.cache is not None and (self.options.result_ttl_seconds
                                       or self.options.result_cache_entries):
            self.cache.configure_result_tier(
                ttl_seconds=self.options.result_ttl_seconds or None,
                max_entries=self.options.result_cache_entries or None)

    @classmethod
    def variant(cls, db: Database, name: str, **overrides) -> "AStoreEngine":
        """An engine configured as one of the paper's Table 6 variants."""
        if name not in VARIANTS:
            raise ExecutionError(
                f"unknown variant {name!r}; choose from {sorted(VARIANTS)}"
            )
        options = VARIANTS[name]
        if overrides:
            options = replace(options, **overrides)
        return cls(db, options)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release process-backend resources (worker pool + exported image)."""
        self._slot.close()

    def __enter__(self) -> "AStoreEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- planning ---------------------------------------------------------

    def plan(self, query) -> PhysicalPlan:
        """Bind and optimize a SQL string (or parsed statement)."""
        logical = bind(query, self.db)
        return optimize(
            logical, self.db,
            cache=self.options.cache,
            use_predicate_filter=self.options.use_predicate_filter,
            array_agg=self.options.use_array_aggregation,
            sample_size=self.options.sample_size,
        )

    def explain(self, query) -> str:
        """The optimizer's plan, with this variant's DAG rewrite applied."""
        physical = self.plan(query)
        rewritten = rewrite_for_options(
            physical.pipeline, self.options, physical.logical)
        if rewritten == physical.pipeline:
            return physical.explain()
        text = physical.explain()
        lines = [f"variant {self.options.variant_name} rewrites pipeline to:"]
        for i, spec in enumerate(rewritten):
            arrow = "   " if i == 0 else " ->"
            lines.append(f" {arrow} {spec.render()}")
        return text + "\n" + "\n".join(lines)

    # -- compilation --------------------------------------------------------

    def _cache_token(self) -> str:
        """The compile-relevant options, canonicalized for fingerprints.

        Only fields that change the *compiled artifact* participate —
        ``workers``/``parallel_backend`` affect how a bound plan is
        dispatched, not what it contains, so engines differing only in
        backend share plan-tier entries.
        """
        o = self.options
        return (f"{o.variant_name}|{o.scan}|{o.use_predicate_filter}|"
                f"{o.use_array_aggregation}|{o.cache.llc_bytes}|"
                f"{o.morsel_rows}|{o.chunk_rows}|{o.sample_size}|"
                f"{o.use_pruning}|{o.zone_block_rows}")

    def compile(self, query, snapshot: Optional[int] = None) -> BoundQuery:
        """Compile *query* into a portable bound plan.

        The result is a self-contained, picklable artifact: the
        variant-rewritten operator DAG, the evaluated leaf products, and
        the plan metadata.  It can be executed here
        (:meth:`run_compiled`), pickled to another process, or rebuilt
        against any attached copy of the same database.

        With the query cache active, a repeated (or merely textually
        different but structurally identical) query returns the *same*
        bound-plan object, revalidated against the mutation stamps of
        every table it touches — exactly for the dimensions, through the
        mutation journal for the fact table (a write that touched no
        column the plan encodes keeps it); ``leaf_seconds`` then
        reflects the lookup, not a recompile.

        Note for concurrent callers: a cached plan is shared, so the
        ``leaf_seconds``/``cache_events`` bookkeeping stamped on here is
        last-writer-wins (timing skew only, never results).
        :meth:`query` routes those per-execution values out-of-band
        instead, so the serving path is free of even that skew.
        """
        bound, leaf_seconds, events = self._compile_cached(query, snapshot)
        bound.leaf_seconds = leaf_seconds
        bound.cache_events = events
        return bound

    def _compile_cached(self, query, snapshot: Optional[int]
                        ) -> Tuple[BoundQuery, float, Dict[str, int]]:
        """Compile through the plan tier, returning the (possibly
        shared) plan plus this call's own ``(leaf_seconds, events)`` —
        nothing per-execution is written onto the shared object."""
        if self.cache is None:
            bound = self._compile(self.plan(query), snapshot)
            return bound, bound.leaf_seconds, dict(bound.cache_events)
        t0 = time.perf_counter()
        stmt = parse_cached(query) if isinstance(query, str) else query
        key = (query_fingerprint(stmt, self._cache_token()), snapshot)
        bound = self.cache.get("plan", key, self.db)
        if bound is not None:
            # Same object on purpose: shard backends memoize the plan
            # pickle by object identity, and any value-shared key would
            # risk shipping stale bytes after a recompile.
            return bound, time.perf_counter() - t0, {"plan_hits": 1}
        # stamps are captured BEFORE compiling: if a writer mutates a
        # table mid-compile, the stored entry carries the pre-mutation
        # stamp and the next lookup discards it — stamped-after, a
        # stale artifact could wear a fresh stamp forever
        pre_stamps = {name: table.mutation_count
                      for name, table in self.db.tables.items()}
        events = {"plan_misses": 1}
        bound = self._compile(self.plan(stmt), snapshot, events)
        bound.cache_key = key
        # dimension stamps stay exact; a fact-only write that the journal
        # accounts for and that wrote no column the plan encodes leaves
        # the plan as it would compile now (see BoundQuery.encoded_columns)
        self.cache.put("plan", key, bound,
                       tuple(sorted((name, pre_stamps[name])
                                    for name in set(bound.logical.tables))),
                       bound_nbytes(bound),
                       bridge=(bound.logical.root, bound.encoded_columns()))
        return bound, bound.leaf_seconds, dict(events)

    def _compile(self, physical: PhysicalPlan, snapshot: Optional[int],
                 events: Optional[Dict[str, int]] = None) -> BoundQuery:
        t0 = time.perf_counter()
        events = {} if events is None else events
        leaf = self._bind_leaf(physical, snapshot, events)
        logical = physical.logical
        specs = rewrite_for_options(physical.pipeline, self.options, logical)
        bound = BoundQuery(
            variant=self.options.variant_name,
            scan="projection" if logical.is_projection else self.options.scan,
            specs=specs,
            logical=logical,
            leaf=leaf,
            snapshot=snapshot,
            morsel_rows=self.options.morsel_rows,
            chunk_rows=self.options.chunk_rows,
            use_array_hint=bool(physical.use_array_agg),
            cache_events=events,
            prune_enabled=self.options.use_pruning,
            zone_block_rows=self.options.zone_block_rows,
        )
        bound.leaf_seconds = time.perf_counter() - t0
        return bound

    # -- execution ----------------------------------------------------------

    def query(self, query, snapshot: Optional[int] = None) -> QueryResult:
        """Compile (through the cache, when enabled) and execute *query*.

        Safe for concurrent callers: per-execution bookkeeping travels
        out-of-band instead of through fields of the shared cached plan.
        """
        bound, leaf_seconds, events = self._compile_cached(query, snapshot)
        return self.run_compiled(bound, leaf_seconds=leaf_seconds,
                                 cache_events=events)

    def execute(self, physical: PhysicalPlan,
                snapshot: Optional[int] = None) -> QueryResult:
        """Run a physical plan, optionally against an MVCC *snapshot*."""
        return self.run_compiled(self._compile(physical, snapshot))

    def result_key(self, query, snapshot: Optional[int] = None
                   ) -> Optional[tuple]:
        """The plan/result-tier cache key of *query* on this engine
        (``None`` with the cache disabled) — what the serving layer uses
        to coalesce concurrent identical queries."""
        if self.cache is None:
            return None
        stmt = parse_cached(query) if isinstance(query, str) else query
        return (query_fingerprint(stmt, self._cache_token()), snapshot)

    def serve_cached(self, query, snapshot: Optional[int] = None,
                     key: Optional[tuple] = None) -> Optional[QueryResult]:
        """Result-tier-only lookup: a per-caller copy of the cached
        result for an exact repeat, or ``None`` on a miss (including
        cache/serving disabled or a stale entry).  Never compiles or
        executes — this is the non-blocking fast path the async serving
        layer answers from without leaving the event loop.  Callers
        that already hold the :meth:`result_key` pass it to skip the
        parse + fingerprint."""
        if self.cache is None or not self.options.cache_results:
            return None
        t0 = time.perf_counter()
        if key is None:
            key = self.result_key(query, snapshot)
        hit = self.cache.get("result", key, self.db)
        if hit is None:
            return None
        return _served_result(hit, time.perf_counter() - t0)

    def run_compiled(self, bound: BoundQuery,
                     leaf_seconds: Optional[float] = None,
                     cache_events: Optional[Dict[str, int]] = None
                     ) -> QueryResult:
        """Execute a (possibly unpickled) bound plan on this engine's
        database, honouring the configured backend.

        With ``cache_results`` enabled, an exact repeat whose mutation
        stamps still hold is served straight from the result tier — as
        a frozen, per-caller copy, so served results can never alias
        each other's mutations.  ``leaf_seconds``/``cache_events``
        override the plan's stamped-on bookkeeping (the plan object is
        shared between concurrent callers when cached; :meth:`query`
        passes this call's own values)."""
        if leaf_seconds is None:
            leaf_seconds = bound.leaf_seconds
        if cache_events is None:
            cache_events = dict(bound.cache_events)
        serve = (self.cache is not None and self.options.cache_results
                 and bound.cache_key is not None)
        serve_stamps = None
        t_total = time.perf_counter()
        if serve:
            hit = self.cache.get("result", bound.cache_key, self.db)
            if hit is not None:
                return _served_result(
                    hit, time.perf_counter() - t_total + leaf_seconds)
            # pre-execution stamps: a mutation racing this execution
            # leaves the stored result stamped stale, never stale-fresh
            serve_stamps = table_stamps(self.db, bound.logical.tables)
        stats = ExecutionStats(variant=bound.variant)
        stats.leaf_seconds = leaf_seconds
        stats.cache_events = dict(cache_events)
        for dim in bound.leaf.filters:
            stats.filter_modes[dim] = "vector"
        for dim in bound.leaf.probes:
            stats.filter_modes[dim] = "probe"

        visible = bound.visibility(self.db)
        stats.rows_scanned = (self.db.table(bound.logical.root).num_rows
                              if visible is None
                              else int(np.count_nonzero(visible)))

        if not BACKENDS[self.options.parallel_backend].inline:
            result = self._run_sharded(bound, stats)
        elif bound.scan == "projection":
            result = self._run_projection(bound, visible, stats)
        elif bound.scan == "row":
            result = self._run_row_scan(bound, visible, stats)
        else:
            result = self._run_column_scan(bound, visible, stats)
        # leaf binding happened at compile time; fold it back in so the
        # total covers all three phases (phase sums never exceed it)
        stats.total_seconds = (time.perf_counter() - t_total
                               + leaf_seconds)
        if serve:
            # the cached copy is frozen (immutable views, private column
            # map) and this caller gets its own wrapper over the same
            # arrays — nobody holds a handle that can corrupt the tier
            frozen = result.freeze()
            nbytes = sum(int(getattr(col, "nbytes", 0))
                         for col in frozen.columns.values())
            self.cache.put("result", bound.cache_key, frozen,
                           serve_stamps, nbytes)
            return frozen.served_copy(stats)
        return result

    # -- stage 1: leaf processing (binding) ----------------------------------

    def _bind_leaf(self, physical: PhysicalPlan, snapshot: Optional[int],
                   events: Optional[Dict[str, int]] = None) -> LeafProducts:
        """Evaluate dimension predicates and build group axes once.

        Both products are consulted against (and stored into) the query
        cache per artifact: a packed predicate vector is keyed by its
        canonical bound predicate — so *different* queries sharing a
        dimension slice (the SSB query families) reuse one dimension
        scan — and group axes are keyed by their key set.  Every entry
        is stamped with the mutation counts of the tables it read.
        """
        events = {} if events is None else events
        logical = physical.logical
        leaf = LeafProducts()
        cache = self.cache
        for dd in physical.dim_decisions:
            if not dd.use_filter:
                leaf.probes[dd.first_dim] = dd.predicate
                leaf.probe_selectivity[dd.first_dim] = dd.estimated_selectivity
                continue
            key = involved = stamps = None
            if cache is not None:
                # the mask gathers through the whole subtree reachable
                # from the first-level dimension, so all of it stamps
                # (and keys) the entry; stamps are read before the
                # evaluation so a concurrent mutation invalidates
                involved = tuple(sorted(
                    {dd.first_dim} | logical.subtree_of(dd.first_dim)))
                key = ("pf", dd.first_dim, involved, snapshot, dd.predicate)
                stamps = table_stamps(self.db, involved)
                hit = cache.get("leaf", key, self.db)
                if hit is not None:
                    pf, density = hit
                    leaf.filters[dd.first_dim] = pf
                    leaf.filter_density[dd.first_dim] = density
                    _bump(events, "leaf_hits")
                    continue
            pf = build_predicate_filter(self.db, logical.paths,
                                        dd.first_dim, dd.predicate, snapshot)
            density = pf.density
            leaf.filters[dd.first_dim] = pf
            leaf.filter_density[dd.first_dim] = density
            if cache is not None:
                cache.put("leaf", key, (pf, density), stamps, pf.nbytes)
                _bump(events, "leaf_misses")
        if logical.group_keys and not logical.is_projection:
            leaf.axes = build_axes(self.db, logical,
                                   memo=self._axis_memo(events))
        return leaf

    def _axis_memo(self, events: Dict[str, int]):
        """A ``build_axes`` memo backed by the cache's axis tier."""
        cache = self.cache
        if cache is None:
            return None

        def memo(key_id: tuple, involved, build):
            axis = cache.get("axis", key_id, self.db)
            if axis is not None:
                _bump(events, "axis_hits")
                return axis
            stamps = table_stamps(self.db, involved)  # pre-build
            axis = build()
            cache.put("axis", key_id, axis, stamps, axis_nbytes(axis))
            _bump(events, "axis_misses")
            return axis

        return memo

    # -- column-wise execution ------------------------------------------------

    def _run_column_scan(self, bound: BoundQuery,
                         visible: Optional[np.ndarray],
                         stats: ExecutionStats) -> QueryResult:
        dispatcher = MorselDispatcher(self.options.parallel_backend)
        counters = PruneCounters()
        morsels = bound.make_morsels(self.db, visible, self.options.workers,
                                     bound.morsel_rows, prune=counters)
        stats.morsels = len(morsels)
        self._fold_prune(stats, counters)

        reorders_before = self._reorders(bound)
        scanned = dispatcher.run(morsels, bound.scan_pipeline)
        stats.filters_reordered += self._reorders(bound) - reorders_before
        merge_timings(stats, scanned)
        total_selected = 0
        for result in scanned:
            total_selected += len(result.morsel)
            stats.scan_seconds += result.seconds
        stats.rows_selected = total_selected

        # Section 4.3's sparsity check, made with the *actual* selection
        # size now that the scan has run.
        use_array = bound.decide_use_array(total_selected)
        stats.used_array_aggregation = use_array or not bound.leaf.axes

        outcomes = dispatcher.run(
            [r.morsel for r in scanned],
            lambda: bound.aggregate_pipeline(use_array))
        merge_timings(stats, outcomes)
        state: Optional[AggregationState] = None
        for result in outcomes:
            stats.aggregation_seconds += result.seconds
            for partial in result.finishes.values():
                state = partial if state is None else state.merge(partial)
        return self._assemble(bound.logical, bound.leaf.axes, state, stats)

    # -- row-wise execution ---------------------------------------------------

    def _run_row_scan(self, bound: BoundQuery,
                      visible: Optional[np.ndarray],
                      stats: ExecutionStats) -> QueryResult:
        """Chunked row-wise scan: materialize the full tuple, then filter.

        Every referenced column — including dimension attributes reached
        through AIR — is fetched for *every* row of the chunk before any
        predicate is applied (the ``materialize`` + ``defer`` DAG
        rewrite), reproducing tuple-at-a-time cost without a per-row
        interpreter loop.
        """
        dispatcher = MorselDispatcher("serial")
        counters = PruneCounters()
        morsels = bound.make_morsels(self.db, visible, 1, bound.chunk_rows,
                                     prune=counters)
        stats.morsels = len(morsels)
        self._fold_prune(stats, counters)

        results = dispatcher.run(morsels, bound.row_pipeline)
        merge_timings(stats, results)
        gathered = None
        for result in results:
            stats.scan_seconds += sum(
                seconds for label, seconds in result.timings.items()
                if not label.startswith(("gather", "apply-mask")))
            stats.aggregation_seconds += sum(
                seconds for label, seconds in result.timings.items()
                if label.startswith(("gather", "apply-mask")))
            for partial in result.finishes.values():
                gathered = (partial if gathered is None
                            else gathered.merge(partial))
        return self._finish_row_scan(bound, gathered, stats)

    def _finish_row_scan(self, bound: BoundQuery, gathered,
                         stats: ExecutionStats) -> QueryResult:
        t2 = time.perf_counter()
        axes, state = value_grouping(bound.logical, gathered)
        stats.rows_selected = gathered.selected
        stats.used_array_aggregation = not axes
        stats.aggregation_seconds += time.perf_counter() - t2
        return self._assemble(bound.logical, axes, state, stats)

    # -- projection (pure SPJ) ------------------------------------------------

    def _run_projection(self, bound: BoundQuery,
                        visible: Optional[np.ndarray],
                        stats: ExecutionStats) -> QueryResult:
        dispatcher = MorselDispatcher("serial")
        counters = PruneCounters()
        results = dispatcher.run(
            bound.make_morsels(self.db, visible, 1, 0, allow_identity=False,
                               prune=counters),
            bound.projection_pipeline)
        self._fold_prune(stats, counters)
        merge_timings(stats, results)
        chunks = [value for result in results
                  for value in result.finishes.values()]
        stats.rows_selected = sum(len(r.morsel) for r in results)
        stats.scan_seconds = sum(r.seconds for r in results)
        stats.groups = stats.rows_selected
        stats.morsels = len(results)
        return self._finish(bound.logical,
                            _concat_projection(bound.logical, chunks), stats)

    # -- stats helpers --------------------------------------------------------

    @staticmethod
    def _fold_prune(stats: ExecutionStats, counters: PruneCounters) -> None:
        stats.morsels_skipped += counters.blocks_skipped
        stats.morsels_accepted += counters.blocks_accepted
        stats.morsels_scanned += counters.blocks_scanned
        stats.prune_gated += counters.gated

    @staticmethod
    def _reorders(bound: BoundQuery) -> int:
        state = bound.__dict__.get("_reorder")
        return state.reorders if state is not None else 0

    # -- sharded (process-backend) execution ----------------------------------

    def _run_sharded(self, bound: BoundQuery,
                     stats: ExecutionStats) -> QueryResult:
        """Run the bound plan over horizontal shards in worker processes.

        Scan and aggregation fuse into one worker trip per shard, so the
        §4.3 array-vs-hash decision is made up front from the bound
        selectivities (their product over the exact predicate-vector
        densities); per-shard partial states merge in shard order.
        """
        # warm the parent's zone maps for this plan's prunable columns
        # before a (first) arena export, so workers attach the
        # summaries zero-copy instead of re-deriving them
        bound.warm_zone_maps(self.db)
        use_array: Optional[bool] = None
        agg_labels: Tuple[str, ...] = ("gather", "apply-mask")
        if bound.scan == "column":
            use_array = bound.decide_use_array(
                bound.estimated_selected(stats.rows_scanned))
            agg_labels = ("aggregate",)
        outcomes = self._slot.run(bound, use_array, stats)
        fold_outcomes(outcomes, stats, agg_labels)

        if bound.scan == "projection":
            chunks = [value for outcome in outcomes
                      for values in outcome.finishes.values()
                      for value in values]
            stats.groups = stats.rows_selected
            return self._finish(
                bound.logical, _concat_projection(bound.logical, chunks),
                stats)

        merged = merge_outcome_states(outcomes)
        if bound.scan == "row":
            return self._finish_row_scan(bound, merged, stats)
        stats.used_array_aggregation = bool(use_array) or not bound.leaf.axes
        return self._assemble(bound.logical, bound.leaf.axes, merged, stats)

    # -- result assembly ------------------------------------------------------

    def _assemble(self, logical: LogicalPlan, axes: Sequence[GroupAxis],
                  state: Optional[AggregationState],
                  stats: ExecutionStats) -> QueryResult:
        if state is None:
            raise ExecutionError("no aggregation state produced")
        ids, aggs = finalize(state)
        if not logical.group_keys and len(ids) == 0:
            # scalar aggregate over an empty selection: one all-zero row
            ids = np.zeros(1, dtype=np.int64)
            aggs = {spec.name: _empty_scalar(spec.func)
                    for spec in logical.aggregates}
        columns: Dict[str, np.ndarray] = {}
        if axes:
            columns.update(decode_group_columns(axes, ids))
        columns.update(aggs)
        stats.groups = len(ids)
        return self._finish(logical, columns, stats)

    def _finish(self, logical: LogicalPlan, columns: Dict[str, np.ndarray],
                stats: ExecutionStats) -> QueryResult:
        ordered = {name: columns[name] for name in logical.output_order}
        nrows = len(next(iter(ordered.values()), []))
        if logical.order_by and nrows > 1:
            if logical.limit is not None and logical.limit < nrows:
                perm = top_k_indices(ordered, logical.order_by,
                                     logical.limit)
            else:
                perm = sort_indices(ordered, logical.order_by)
            ordered = {name: values[perm] for name, values in ordered.items()}
        if logical.limit is not None:
            ordered = {name: values[: logical.limit]
                       for name, values in ordered.items()}
        return QueryResult(logical.output_order, ordered, stats)


def _bump(events: Dict[str, int], key: str) -> None:
    events[key] = events.get(key, 0) + 1


def _served_result(cached: QueryResult, seconds: float) -> QueryResult:
    """A result-tier hit: a per-caller copy of the cached result.

    Column arrays are shared with the cached copy but frozen
    (read-only views), and the caller gets its own column map — so a
    served result can be neither written through nor used to corrupt
    the cache.  Counters carry over; timings reflect the lookup, which
    is the point of the serving tier.
    """
    src = cached.stats
    stats = ExecutionStats(variant=src.variant)
    stats.rows_scanned = src.rows_scanned
    stats.rows_selected = src.rows_selected
    stats.groups = src.groups
    stats.morsels = src.morsels
    stats.morsels_skipped = src.morsels_skipped
    stats.morsels_accepted = src.morsels_accepted
    stats.morsels_scanned = src.morsels_scanned
    stats.prune_gated = src.prune_gated
    stats.used_array_aggregation = src.used_array_aggregation
    stats.filter_modes = dict(src.filter_modes)
    stats.total_seconds = seconds
    stats.cache_events = {"result_hits": 1}
    return cached.served_copy(stats)


def _concat_projection(logical: LogicalPlan,
                       chunks: List[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """Stitch per-morsel/per-shard projection chunks back together."""
    if len(chunks) == 1:
        return chunks[0]
    out: Dict[str, np.ndarray] = {}
    for key in logical.projection_columns:
        parts = [chunk[key.name] for chunk in chunks]
        out[key.name] = (np.concatenate(parts) if parts
                         else np.empty(0, dtype=object))
    return out


def _empty_scalar(func: str) -> np.ndarray:
    if func == "COUNT":
        return np.zeros(1, dtype=np.int64)
    if func in ("SUM",):
        return np.zeros(1, dtype=np.int64)
    return np.array([np.nan])
