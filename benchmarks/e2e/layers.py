"""Per-layer probes: each times calls into one layer's public functions.

The program is measured from outside — nothing here reaches past the public
``parse`` / ``bind`` / ``optimize`` / ``AStoreEngine.compile`` /
``ColumnArena.export`` / ``air_join`` … surfaces.  Every probe returns
``{metric name: value}`` with the names ``BENCHMARK.json`` lists; ``run.py``
calls them only in a ``--trace`` run, after the traced pass, because several
of them disturb the caches the timed window depends on.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Sequence

import numpy as np

from repro.core.arena import ColumnArena, attach_database
from repro.core.statistics import fresh_zone_entries
from repro.engine.cache import parse_cached
from repro.joins import air_join, npo_hash_join
from repro.plan import bind, optimize
from repro.sqlparser import parse

from spans import Spans, mean_ms, timed

#: operator_seconds labels look like ``probe[part:vector]``; the part before
#: the bracket is the operator kind
OPERATOR_METRICS = {
    "filter": "operators.filter_ms",
    "probe": "operators.probe_ms",
    "group-combine": "operators.group_combine_ms",
    "aggregate": "operators.aggregate_ms",
}


def planning(engine, sqls: Sequence[str], spans: Spans) -> Dict[str, float]:
    """Parse, bind and optimize each distinct SQL once; then compile each on
    a cold cache (plan, leaf and axis tiers empty, parse memo cleared) and
    again warm.  Leaves the engine's cache warm for *sqls*."""
    options, db = engine.options, engine.db
    for sql in sqls:
        with spans.span("probe.plan"):
            with spans.span("sqlparser.parse"):
                statement = parse(sql)
            with spans.span("plan.bind"):
                logical = bind(statement, db)
            with spans.span("plan.optimize"):
                optimize(logical, db, cache=options.cache,
                         use_predicate_filter=options.use_predicate_filter,
                         array_agg=options.use_array_aggregation,
                         sample_size=options.sample_size)
    engine.cache.clear()
    parse_cached.cache_clear()
    for name in ("executor.compile_miss", "executor.compile_hit"):
        for sql in sqls:
            with spans.span(name):
                engine.compile(sql)
    out = {
        "sqlparser.parse_ms": mean_ms(spans.records, "sqlparser.parse"),
        "plan.bind_ms": mean_ms(spans.records, "plan.bind"),
        "plan.optimize_ms": mean_ms(spans.records, "plan.optimize"),
        "executor.compile_miss_ms": mean_ms(spans.records,
                                            "executor.compile_miss"),
        "executor.compile_hit_ms": mean_ms(spans.records,
                                           "executor.compile_hit"),
    }
    out["executor.leaf_ms"] = (
        out["executor.compile_miss_ms"] - out["sqlparser.parse_ms"]
        - out["plan.bind_ms"] - out["plan.optimize_ms"])
    return out


def execution(stats: List, run_ms: float, workers: int) -> Dict[str, float]:
    """Fold the ``ExecutionStats`` of the traced queries: operator time per
    query by kind, scan rate, and block-skipping verdict ratios.  *run_ms* is
    the mean ``run_compiled`` span; shards run side by side, so the operator
    time that blocks a query is the summed time over *workers*."""
    queries = max(1, len(stats))
    by_kind = dict.fromkeys(OPERATOR_METRICS.values(), 0.0)
    operator_s = 0.0
    for one in stats:
        for label, spent in one.operator_seconds.items():
            operator_s += spent
            metric = OPERATOR_METRICS.get(label.split("[")[0])
            if metric:
                by_kind[metric] += spent
    rows = sum(one.rows_scanned for one in stats)
    skipped = sum(one.morsels_skipped for one in stats)
    accepted = sum(one.morsels_accepted for one in stats)
    blocks = skipped + accepted + sum(one.morsels_scanned for one in stats)
    out = {name: 1e3 * spent / queries for name, spent in by_kind.items()}
    out.update({
        "executor.run_ms": run_ms,
        "executor.run_overhead_ms":
            run_ms - 1e3 * operator_s / workers / queries,
        "operators.ns_per_fact_row": 1e9 * operator_s / rows if rows else 0.0,
        "operators.rows_scanned": rows / queries,
        "sharding.blocks_skipped_ratio": skipped / blocks if blocks else 0.0,
        "sharding.blocks_accepted_ratio": accepted / blocks if blocks else 0.0,
        "sharding.prune_gated": sum(one.prune_gated for one in stats) / queries,
        "sharding.shard_fallbacks": sum(one.shard_fallbacks for one in stats),
    })
    return out


def cache_tiers(cache, before: Dict[str, int], invalidated_before: int
                ) -> Dict[str, float]:
    """Hit ratios over the window since the *before* counter snapshot."""
    rates = cache.hit_rates(before, cache.counters())
    out = {f"cache.{tier}_hit_ratio": rates.get(tier, 0.0)
           for tier in ("plan", "leaf", "axis", "zone", "result")}
    out.update(cache_footprint(cache, invalidated_before))
    return out


def invalidations(cache) -> int:
    return sum(tier.invalidations for tier in cache.stats().values())


def cache_footprint(cache, invalidated_before: int = 0) -> Dict[str, float]:
    return {
        "cache.invalidations": invalidations(cache) - invalidated_before,
        "cache.bytes": sum(tier.bytes for tier in cache.stats().values()),
    }


def plan_pickle(engine, sqls: Sequence[str]) -> Dict[str, float]:
    """What the process backend ships per query: the bound plan's pickle."""
    spent, size = 0.0, 0
    for sql in sqls:
        bound = engine.compile(sql)
        seconds, blob = timed(lambda: pickle.dumps(bound))
        spent += seconds
        size += len(blob)
    return {"sharding.plan_pickle_ms": 1e3 * spent / len(sqls),
            "sharding.plan_pickle_bytes": size / len(sqls)}


def arena(db, cache) -> Dict[str, float]:
    """Export the database to a shared segment and attach it once, as the
    process backend does at pool start; the segment is released here."""
    export_s, exported = timed(
        lambda: ColumnArena.export(db, fresh_zone_entries(db, cache)))
    try:
        attach_s, attached = timed(lambda: attach_database(exported.manifest))
        attached.close()
        return {"arena.export_ms": 1e3 * export_s,
                "arena.attach_ms": 1e3 * attach_s,
                "arena.nbytes": exported.nbytes}
    finally:
        exported.close()


def joins(db) -> Dict[str, float]:
    """The paper's Table 2 reference point on ``lo_custkey -> customer`` at
    workload scale: following AIR positions against a hash join on keys."""
    refs = db.table("lineorder")["lo_custkey"].values()
    dim_keys = np.asarray(db.table("customer")["c_custkey"].values())
    fact_keys = dim_keys[refs]
    air_s, _ = timed(lambda: air_join(refs, len(dim_keys)))
    npo_s, _ = timed(lambda: npo_hash_join(fact_keys, dim_keys))
    return {"joins.air_ns_per_tuple": 1e9 * air_s / len(refs),
            "joins.npo_ns_per_tuple": 1e9 * npo_s / len(refs)}


def storage(db) -> Dict[str, float]:
    total = sum(table.nbytes for table in db.tables.values())
    return {"storage.bytes_per_fact_row":
            total / db.table("lineorder").num_rows}
