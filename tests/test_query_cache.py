"""Query-cache correctness: compile-once, serve-many, never stale.

Pins the PR's contracts:

* **cache on/off differential** — all 13 SSB queries return identical
  rows with caching disabled, with the compile tiers (plan/leaf/axis),
  and with the result serving tier, across the serial, thread, and
  process backends;
* **exact invalidation** — an insert/update/delete that bumps a table's
  ``mutation_count`` drops every cache tier derived from that table
  (and only those), so post-mutation queries match a cache-free engine;
* **hot-path hygiene** — scratch-buffer reuse and identity morsels
  never leak between queries or pipelines.
"""

import numpy as np
import pytest

from repro.engine import AStoreEngine, EngineOptions
from repro.engine.cache import (
    QueryCache,
    parse_cached,
    query_cache_for,
    query_fingerprint,
    table_stamps,
)
from repro.engine.scratch import MAX_POOLED_ELEMENTS, ScratchPool, local_pool
from repro.workloads import SSB_QUERIES

from .conftest import build_tiny_star


def fresh_engine(db, **overrides):
    return AStoreEngine(db, EngineOptions(**overrides))


@pytest.fixture(scope="module")
def process_engine(ssb_air):
    """A process-backed engine with compile tiers on (results executed,
    not served, so the differential really exercises the shards)."""
    engine = AStoreEngine(ssb_air, EngineOptions(
        parallel_backend="process", workers=2))
    yield engine
    engine.close()


class TestCacheOnOffDifferential:
    @pytest.mark.parametrize("query_id", list(SSB_QUERIES))
    def test_all_backends_and_tiers_identical(self, ssb_air, process_engine,
                                              query_id):
        sql = SSB_QUERIES[query_id]
        reference = fresh_engine(ssb_air, use_cache=False).query(sql).rows()

        serving = fresh_engine(ssb_air, cache_results=True)
        assert serving.query(sql).rows() == reference     # fills the tiers
        served = serving.query(sql)
        assert served.rows() == reference                 # exact repeat
        assert served.stats.cache_events.get("result_hits") == 1

        threaded = fresh_engine(ssb_air, parallel_backend="thread",
                                workers=2)
        assert threaded.query(sql).rows() == reference    # warm plan tier
        assert process_engine.query(sql).rows() == reference
        assert process_engine.query(sql).rows() == reference  # warm repeat

    def test_served_result_through_process_backend(self, ssb_air):
        sql = SSB_QUERIES["Q4.1"]
        reference = fresh_engine(ssb_air, use_cache=False).query(sql).rows()
        with AStoreEngine(ssb_air, EngineOptions(
                parallel_backend="process", workers=2,
                cache_results=True)) as engine:
            assert engine.query(sql).rows() == reference
            warm = engine.query(sql)
            assert warm.rows() == reference
            assert warm.stats.cache_events.get("result_hits") == 1

    def test_leaf_tier_shared_across_query_family(self, ssb_air):
        """Q2.1/Q2.2/Q2.3 differ in their part predicate but share the
        supplier slice — the second family member reuses it."""
        engine = fresh_engine(ssb_air)
        q21 = engine.query(SSB_QUERIES["Q2.1"])
        q21_events = dict(q21.stats.cache_events)
        sql_sibling = SSB_QUERIES["Q2.1"].replace("MFGR#12", "MFGR#22")
        sibling = engine.query(sql_sibling)
        assert sibling.stats.cache_events.get("plan_misses") == 1
        assert sibling.stats.cache_events.get("leaf_hits", 0) >= 1
        assert q21_events.get("plan_misses", 0) <= 1


class TestFingerprinting:
    def test_whitespace_and_case_collapse(self, ssb_air):
        engine = fresh_engine(ssb_air)
        a = engine.compile("SELECT d_year, count(*) AS n "
                           "FROM lineorder, date GROUP BY d_year")
        b = engine.compile("select   d_year,\n count(*) AS n\n"
                           "from lineorder, date group by d_year")
        assert a is b  # same bound-plan object: the plan tier hit
        assert b.cache_events.get("plan_hits") == 1

    def test_variants_do_not_share_plans(self, ssb_air):
        sql = "SELECT d_year, count(*) AS n FROM lineorder, date GROUP BY d_year"
        column = AStoreEngine.variant(ssb_air, "AIRScan_C_P").compile(sql)
        row = AStoreEngine.variant(ssb_air, "AIRScan_R_P").compile(sql)
        assert column is not row
        assert row.scan == "row" and column.scan == "column"

    def test_fingerprint_is_deterministic(self):
        stmt = parse_cached("SELECT count(*) FROM lineorder")
        assert (query_fingerprint(stmt, "tok")
                == query_fingerprint(stmt, "tok"))
        assert (query_fingerprint(stmt, "tok")
                != query_fingerprint(stmt, "other"))

    def test_parse_memo_returns_same_statement(self):
        sql = "SELECT count(*) FROM lineorder"
        assert parse_cached(sql) is parse_cached(sql)

    def test_compiled_plan_with_cache_key_pickles(self, ssb_air):
        import pickle

        bound = fresh_engine(ssb_air).compile(SSB_QUERIES["Q1.1"])
        clone = pickle.loads(pickle.dumps(bound))
        assert clone.cache_key == bound.cache_key
        assert (fresh_engine(ssb_air).run_compiled(clone).rows()
                == fresh_engine(ssb_air, use_cache=False)
                .query(SSB_QUERIES["Q1.1"]).rows())


MUTATING_SQL = ("SELECT d_year, sum(lo_revenue) AS r "
                "FROM lineorder, customer, date "
                "WHERE c_region = 'ASIA' GROUP BY d_year ORDER BY d_year")


class TestMutationInvalidation:
    def check_against_uncached(self, db, engine, sql=MUTATING_SQL):
        cached = engine.query(sql)
        uncached = fresh_engine(db, use_cache=False).query(sql)
        assert cached.rows() == uncached.rows()
        return cached

    def test_update_invalidates_leaf_and_result(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        before = engine.query(MUTATING_SQL).rows()
        assert (engine.query(MUTATING_SQL)
                .stats.cache_events.get("result_hits") == 1)
        # flip the FRANCE customer into ASIA: the supplier-side filter,
        # the plan, and the result must all drop
        db.table("customer").update([2], {"c_region": ["ASIA"]})
        after = self.check_against_uncached(db, engine)
        assert after.rows() != before
        assert after.stats.cache_events.get("result_hits") is None
        assert after.stats.cache_events.get("plan_misses") == 1

    def test_fact_insert_invalidates(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        engine.query(MUTATING_SQL)
        engine.query(MUTATING_SQL)
        db.table("lineorder").insert({
            "lo_orderkey": [9], "lo_custkey": [0], "lo_orderdate": [0],
            "lo_revenue": [1000], "lo_discount": [0], "lo_quantity": [1]})
        self.check_against_uncached(db, engine)

    def test_fact_delete_invalidates(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        engine.query(MUTATING_SQL)
        db.table("lineorder").delete([0, 4])
        self.check_against_uncached(db, engine)

    def test_dimension_insert_invalidates_axis(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        engine.query(MUTATING_SQL)
        # a new date year extends the d_year axis domain
        db.table("date").insert({
            "d_datekey": [19990101], "d_year": [1999], "d_month": ["Jan"]})
        after = self.check_against_uncached(db, engine)
        assert after.stats.cache_events.get("axis_misses", 0) >= 1

    def test_unrelated_mutation_keeps_entries_warm(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        date_only = ("SELECT d_year, count(*) AS n FROM lineorder, date "
                     "GROUP BY d_year ORDER BY d_year")
        engine.query(MUTATING_SQL)
        engine.query(date_only)
        # mutating customer must not evict the date-only artifacts...
        db.table("customer").update([0], {"c_region": ["ASIA"]})
        warm = engine.query(date_only)
        assert warm.stats.cache_events.get("result_hits") == 1
        # ...while the customer-touching query re-binds only its
        # customer-derived leaf product (the date axis stays warm)
        after = engine.query(MUTATING_SQL)
        assert after.stats.cache_events.get("plan_misses") == 1
        assert after.stats.cache_events.get("axis_hits", 0) >= 1

    def test_snapshot_keys_are_distinct_and_stable(self):
        db = build_tiny_star(mvcc=True)
        db.table("lineorder").delete([0, 1], version=5)
        sql = ("SELECT d_year, sum(lo_revenue) AS r FROM lineorder, date "
               "GROUP BY d_year ORDER BY d_year")
        engine = fresh_engine(db, cache_results=True)
        uncached = fresh_engine(db, use_cache=False)
        for snapshot in (4, 5, 4):
            assert (engine.query(sql, snapshot=snapshot).rows()
                    == uncached.query(sql, snapshot=snapshot).rows())
        warm = engine.query(sql, snapshot=4)
        assert warm.stats.cache_events.get("result_hits") == 1


class TestQueryCacheMechanics:
    def test_table_stamps_track_mutations(self, tiny_star):
        before = table_stamps(tiny_star, ("date", "lineorder"))
        tiny_star.table("lineorder").delete([0])
        after = table_stamps(tiny_star, ("date", "lineorder"))
        assert before != after
        assert dict(before)["date"] == dict(after)["date"]

    def test_lru_eviction_bounds_entries(self, tiny_star):
        cache = QueryCache(max_entries=2)
        stamps = table_stamps(tiny_star, ("date",))
        for i in range(5):
            cache.put("plan", ("k", i), i, stamps, nbytes=10)
        stats = cache.stats()["plan"]
        assert stats.entries == 2 and stats.evictions == 3
        assert cache.get("plan", ("k", 4), tiny_star) == 4
        assert cache.get("plan", ("k", 0), tiny_star) is None

    def test_result_tier_byte_budget(self, tiny_star):
        cache = QueryCache(result_budget_bytes=100,
                           max_result_entry_bytes=60)
        stamps = table_stamps(tiny_star, ("date",))
        assert not cache.put("result", ("big",), "x", stamps, nbytes=1000)
        assert cache.put("result", ("a",), "a", stamps, nbytes=50)
        assert cache.put("result", ("b",), "b", stamps, nbytes=60)
        stats = cache.stats()["result"]
        assert stats.bytes <= 100 or stats.entries == 1

    def test_stale_entry_counts_invalidation(self, ):
        db = build_tiny_star()
        cache = QueryCache()
        cache.put("leaf", ("k",), "v", table_stamps(db, ("date",)), 1)
        assert cache.get("leaf", ("k",), db) == "v"
        db.table("date").delete([0])
        assert cache.get("leaf", ("k",), db) is None
        assert cache.stats()["leaf"].invalidations == 1

    def test_hit_rates_window(self):
        before = {"plan.hits": 2, "plan.misses": 2}
        after = {"plan.hits": 8, "plan.misses": 4}
        rates = QueryCache.hit_rates(before, after)
        assert rates["plan"] == pytest.approx(0.75)
        assert "leaf" not in rates

    def test_one_cache_per_database_object(self, tiny_star, tiny_snowflake):
        assert query_cache_for(tiny_star) is query_cache_for(tiny_star)
        assert (query_cache_for(tiny_star)
                is not query_cache_for(tiny_snowflake))

    def test_stats_rows_shape(self, tiny_star):
        engine = fresh_engine(tiny_star)
        engine.query("SELECT count(*) AS n FROM lineorder")
        rows = engine.cache.stats_rows()
        assert [row[0] for row in rows] == [
            "plan", "leaf", "axis", "zone", "result"]
        # tier, entries, hits, misses, hit %, invalidated, expired, KiB,
        # built, patched
        assert {len(row) for row in rows} == {10}


class TestScratchPool:
    def test_buffers_are_reused_and_grow(self):
        pool = ScratchPool()
        a = pool.bool_mask(100)
        b = pool.bool_mask(50)
        assert a.base is b.base  # same backing buffer
        big = pool.bool_mask(5000)
        assert big.base is not a.base and len(big) == 5000

    def test_oversize_requests_bypass_pool(self):
        pool = ScratchPool()
        huge = pool.take(MAX_POOLED_ELEMENTS + 1, np.bool_)
        assert huge.base is None  # owned, not pooled
        assert pool.nbytes == 0

    def test_slots_do_not_alias(self):
        pool = ScratchPool()
        a = pool.take(64, np.bool_, slot=0)
        b = pool.take(64, np.bool_, slot=1)
        a[:] = True
        b[:] = False
        assert a.all() and not b.any()

    def test_thread_local_pools_are_distinct(self):
        import threading

        pools = []

        def grab():
            pools.append(local_pool())

        thread = threading.Thread(target=grab)
        thread.start()
        thread.join()
        assert pools[0] is not local_pool()

    def test_projection_results_never_alias_storage(self):
        """An unfiltered whole-table projection must return owned
        arrays: identity morsels serve zero-copy *views* to operators,
        but a result that aliased live column storage would be
        rewritten under the caller by later in-place updates."""
        db = build_tiny_star()
        column = db.table("lineorder")["lo_revenue"]
        result = fresh_engine(db).query(
            "SELECT lo_revenue FROM lineorder")
        held = list(result.column("lo_revenue"))
        assert not np.shares_memory(result.column("lo_revenue"),
                                    column.values())
        db.table("lineorder").update([0], {"lo_revenue": [999]})
        assert list(result.column("lo_revenue")) == held

    def test_alternating_queries_do_not_corrupt(self, ssb_air):
        """Scratch reuse across interleaved queries and morsel sizes
        must never change results (the lifetime-discipline check)."""
        reference = {
            qid: fresh_engine(ssb_air, use_cache=False)
            .query(SSB_QUERIES[qid]).rows()
            for qid in ("Q1.1", "Q2.1", "Q3.1")
        }
        engine = fresh_engine(ssb_air, morsel_rows=4096,
                              parallel_backend="thread", workers=3)
        for _ in range(3):
            for qid, expected in reference.items():
                assert engine.query(SSB_QUERIES[qid]).rows() == expected


class TestQpsHarness:
    def test_warm_leaf_seconds_near_zero(self, ssb_air):
        """The ``query --breakdown`` acceptance: a warm plan hit pays a
        lookup, not a recompile, in its leaf phase."""
        engine = fresh_engine(ssb_air)
        cold = engine.query(SSB_QUERIES["Q4.1"])
        warm = engine.query(SSB_QUERIES["Q4.1"])
        assert warm.stats.cache_events.get("plan_hits") == 1
        assert warm.stats.leaf_seconds <= max(cold.stats.leaf_seconds,
                                              1e-3)
