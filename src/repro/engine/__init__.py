"""The AIRScan execution engine and its shared operator layer."""

from .aggregate import AggregationState, array_aggregate, finalize, hash_aggregate
from .cache import QueryCache, query_cache_for, table_stamps
from .executor import AStoreEngine, EngineOptions, VARIANTS, rewrite_for_options
from .scratch import PoolLease, ScratchPool, lease_pool, local_pool
from .serve import AsyncEngine, QueryServer, ServeStats, run_server, serve_tcp
from .expression import evaluate_measure, evaluate_predicate, like_to_regex
from .grouping import GroupAxis, build_axes, combine_codes, total_groups
from .operators import (
    Aggregate,
    AIRProbe,
    ApplyMask,
    Filter,
    GroupCombine,
    IntersectScan,
    MaskFilter,
    MaterializeColumns,
    Morsel,
    MorselDispatcher,
    Operator,
    PredicateFilter,
    Project,
    ReorderState,
    ValueGather,
)
from .orderby import sort_indices
from .result import ExecutionStats, QueryResult
from .sharding import (
    BoundQuery,
    LeafProducts,
    ProcessShardBackend,
    PruneCounters,
    ShardOutcome,
)
from .slice import (
    ArraySlice,
    DictSlice,
    PositionalProvider,
    RowRange,
    chain_map,
    dimension_provider,
    universal_provider,
)

__all__ = [
    "Aggregate", "AggregationState", "AIRProbe", "ApplyMask",
    "array_aggregate", "ArraySlice", "AStoreEngine", "AsyncEngine",
    "lease_pool", "PoolLease", "QueryServer", "run_server",
    "serve_tcp", "ServeStats", "BoundQuery",
    "build_axes", "chain_map", "combine_codes", "dimension_provider",
    "LeafProducts", "ProcessShardBackend",
    "PruneCounters", "ReorderState", "RowRange", "ShardOutcome",
    "DictSlice", "EngineOptions", "evaluate_measure", "evaluate_predicate",
    "ExecutionStats", "Filter", "finalize", "GroupAxis", "GroupCombine",
    "hash_aggregate", "IntersectScan", "like_to_regex", "MaskFilter",
    "MaterializeColumns", "Morsel", "MorselDispatcher",
    "Operator", "PositionalProvider", "PredicateFilter", "Project",
    "QueryCache", "query_cache_for", "QueryResult",
    "rewrite_for_options", "ScratchPool", "local_pool", "sort_indices",
    "table_stamps", "total_groups", "universal_provider", "ValueGather",
    "VARIANTS",
]
