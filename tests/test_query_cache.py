"""Query-cache correctness: compile-once, serve-many, never stale.

Pins the PR's contracts:

* **cache on/off differential** — all 13 SSB queries return identical
  rows with caching disabled, with the compile tiers (plan/leaf/axis),
  and with the result serving tier, across the serial, thread, and
  process backends;
* **exact invalidation** — an insert/update/delete that bumps a table's
  ``mutation_count`` drops every cache tier derived from that table
  (and only those), so post-mutation queries match a cache-free engine;
  plans are the one exception, kept across a fact write that touched no
  fact column they encode (the result tier never is);
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
        supplier slice — the second family member reuses it, and its
        shape's plan."""
        engine = fresh_engine(ssb_air)
        q21 = engine.query(SSB_QUERIES["Q2.1"])
        q21_events = dict(q21.stats.cache_events)
        sql_sibling = SSB_QUERIES["Q2.1"].replace("MFGR#12", "MFGR#22")
        sibling = engine.query(sql_sibling)
        assert sibling.stats.cache_events.get("plan_rebinds") == 1
        assert sibling.stats.cache_events.get("leaf_hits", 0) >= 1
        assert q21_events.get("plan_misses", 0) <= 1


class TestFingerprinting:
    """The plan tier's key: a statement's shape plus its WHERE values."""

    def test_whitespace_and_case_collapse(self, ssb_air):
        engine = fresh_engine(ssb_air)
        a = engine.compile("SELECT d_year, count(*) AS n "
                           "FROM lineorder, date GROUP BY d_year")
        b = engine.compile("select   d_year,\n count(*) AS n -- years\n"
                           "from LineOrder, date group by D_YEAR;")
        assert a is b  # same bound-plan object: the plan tier hit
        assert b.cache_events.get("plan_hits") == 1

    def test_variants_do_not_share_plans(self, ssb_air):
        sql = "SELECT d_year, count(*) AS n FROM lineorder, date GROUP BY d_year"
        column = AStoreEngine.variant(ssb_air, "AIRScan_C_P").compile(sql)
        row = AStoreEngine.variant(ssb_air, "AIRScan_R_P").compile(sql)
        assert column is not row
        assert row.scan == "row" and column.scan == "column"

    def test_fingerprint_is_deterministic(self, ssb_air):
        sql = "SELECT count(*) AS n FROM lineorder WHERE lo_discount = 2"
        serial = fresh_engine(ssb_air)
        threaded = fresh_engine(ssb_air, parallel_backend="thread",
                                workers=2)
        # the backend is not compile-relevant; the variant is
        assert serial.result_key(sql) == threaded.result_key(sql)
        assert serial.result_key(sql) != AStoreEngine.variant(
            ssb_air, "AIRScan_C_P").result_key(sql)
        assert serial.result_key(sql) != serial.result_key(sql, snapshot=3)
        assert serial.result_key(sql)[2] == (2,)

    def test_parse_memo_returns_same_statement(self):
        sql = "SELECT count(*) FROM lineorder"
        assert parse_cached(sql) is parse_cached(sql)

    @pytest.mark.parametrize("first, second", [
        # a different literal type is a different shape
        ("lo_discount = 2", "lo_discount = 2.5"),
        ("lo_discount = 2", "lo_discount = '2'"),
        # so is an IN list of another length
        ("lo_discount IN (1, 2)", "lo_discount IN (1, 2, 3)"),
        # a negated literal has no slot: no template, compiled per text
        ("lo_discount > -1", "lo_discount > -3"),
    ])
    def test_distinct_shapes_answer_exactly(self, ssb_air, first, second):
        engine = fresh_engine(ssb_air, cache_results=True)
        uncached = fresh_engine(ssb_air, use_cache=False)
        sql = ("SELECT d_year, count(*) AS n FROM lineorder, date "
               "WHERE {} GROUP BY d_year ORDER BY d_year")
        for predicate in (first, second):
            try:
                expected = uncached.query(sql.format(predicate)).rows()
            except Exception as exc:  # the same error, cached or not
                with pytest.raises(type(exc)):
                    engine.query(sql.format(predicate))
                continue
            got = engine.query(sql.format(predicate))
            assert got.rows() == expected
            assert got.stats.cache_events.get("plan_rebinds") is None

    @pytest.mark.parametrize("first, second", [
        # LIMIT, SELECT-list and ORDER BY literals stay in the shape
        ("SELECT d_year, count(*) AS n FROM lineorder, date "
         "GROUP BY d_year ORDER BY n DESC LIMIT 2",
         "SELECT d_year, count(*) AS n FROM lineorder, date "
         "GROUP BY d_year ORDER BY n DESC LIMIT 3"),
        ("SELECT d_year, sum(lo_revenue + 1) AS r FROM lineorder, date "
         "GROUP BY d_year ORDER BY d_year",
         "SELECT d_year, sum(lo_revenue + 2) AS r FROM lineorder, date "
         "GROUP BY d_year ORDER BY d_year"),
    ])
    def test_literals_outside_where_stay_in_the_shape(self, ssb_air, first,
                                                      second):
        engine = fresh_engine(ssb_air, cache_results=True)
        uncached = fresh_engine(ssb_air, use_cache=False)
        assert engine.result_key(first)[1] != engine.result_key(second)[1]
        for sql in (first, second):
            got = engine.query(sql)
            assert got.rows() == uncached.query(sql).rows()
            assert got.stats.cache_events.get("plan_misses") == 1

    def test_quoted_literal_round_trips(self, ssb_air):
        engine = fresh_engine(ssb_air, cache_results=True)
        uncached = fresh_engine(ssb_air, use_cache=False)
        sql = ("SELECT count(*) AS n FROM lineorder, customer "
               "WHERE lo_custkey = c_custkey AND c_region = '{}'")
        engine.query(sql.format("ASIA"))
        quoted = sql.format("AS''IA")
        assert engine.result_key(quoted)[2] == ("AS'IA",)
        got = engine.query(quoted)
        assert got.stats.cache_events.get("plan_rebinds") == 1
        assert got.rows() == uncached.query(quoted).rows() == [(0,)]

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


FACT_GROUP_SQL = ("SELECT lo_discount, count(*) AS n FROM lineorder "
                  "GROUP BY lo_discount ORDER BY lo_discount")

FACT_WRITES = {
    "append": lambda fact: fact.insert({
        "lo_orderkey": [9], "lo_custkey": [0], "lo_orderdate": [0],
        "lo_revenue": [1000], "lo_discount": [2], "lo_quantity": [1]}),
    "delete": lambda fact: fact.delete([0, 4]),
    "revenue": lambda fact: fact.update([1, 5], {"lo_revenue": [7, 9]}),
}


class TestFactOnlyWrites:
    """A plan encodes dimension content and the value domain of its fact
    GROUP BY columns, nothing else of the fact table: a fact write that
    touches no encoded column keeps the plan (through the journal), one
    that does, or a barrier, recompiles it, and results stay exact."""

    @pytest.mark.parametrize("write", sorted(FACT_WRITES))
    def test_plan_survives_a_fact_write(self, write):
        db = build_tiny_star()
        engine = fresh_engine(db)
        engine.query(MUTATING_SQL)
        FACT_WRITES[write](db.table("lineorder"))
        after = engine.query(MUTATING_SQL)
        assert after.stats.cache_events.get("plan_hits") == 1
        assert after.rows() == fresh_engine(
            db, use_cache=False).query(MUTATING_SQL).rows()

    def test_write_to_a_fact_group_column_recompiles(self):
        db = build_tiny_star()
        engine = fresh_engine(db)
        engine.query(FACT_GROUP_SQL)
        # 9 is outside the axis domain the plan encoded (1..4)
        db.table("lineorder").update([3], {"lo_discount": [9]})
        after = engine.query(FACT_GROUP_SQL)
        assert after.stats.cache_events.get("plan_misses") == 1
        assert after.rows() == fresh_engine(
            db, use_cache=False).query(FACT_GROUP_SQL).rows()

    def test_append_recompiles_a_fact_group_plan(self):
        db = build_tiny_star()
        engine = fresh_engine(db)
        engine.query(FACT_GROUP_SQL)
        FACT_WRITES["append"](db.table("lineorder"))
        assert (engine.query(FACT_GROUP_SQL).stats.cache_events
                .get("plan_misses") == 1)

    def test_compaction_recompiles(self):
        db = build_tiny_star()
        engine = fresh_engine(db)
        engine.query(MUTATING_SQL)
        db.table("lineorder").delete([2])
        db.compact("lineorder")
        after = engine.query(MUTATING_SQL)
        assert after.stats.cache_events.get("plan_misses") == 1
        assert after.rows() == fresh_engine(
            db, use_cache=False).query(MUTATING_SQL).rows()

    def test_result_tier_is_never_bridged(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        engine.query(MUTATING_SQL)
        assert (engine.query(MUTATING_SQL).stats.cache_events
                .get("result_hits") == 1)
        FACT_WRITES["append"](db.table("lineorder"))
        after = engine.query(MUTATING_SQL)
        assert after.stats.cache_events.get("result_hits") is None
        assert after.stats.cache_events.get("plan_hits") == 1
        assert after.rows() == fresh_engine(
            db, use_cache=False).query(MUTATING_SQL).rows()
        with pytest.raises(ValueError):
            QueryCache().put("result", ("k",), object(), (),
                             bridge=("lineorder", frozenset()))

    def test_verdicts_patched_after_an_append(self):
        from repro.datagen import generate_ssb

        db = generate_ssb(sf=0.01, seed=3)
        engine = fresh_engine(db)
        sql = SSB_QUERIES["Q1.1"]
        engine.query(sql)
        fact = db.table("lineorder")
        fact.insert(fact.gather(np.arange(0, fact.num_rows, 101)))
        after = engine.query(sql)
        assert after.stats.cache_events.get("plan_hits") == 1
        assert after.rows() == fresh_engine(
            db, use_cache=False, use_pruning=False).query(sql).rows()
        (row,) = [r for r in engine.cache.stats_rows()
                  if r[0] == "  zone/verdicts"]
        assert row[-1] > 0


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


#: ``serve_adhoc``'s seven ad-hoc templates (benchmarks/e2e/workloads.py)
#: with a very selective and a broad literal set each: a plan compiled
#: for one set must answer the other exactly when its values are bound in
ADHOC_SHAPES = {
    "q1_year_band": (
        "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
        "FROM lineorder, date WHERE lo_orderdate = d_datekey "
        "AND d_year = {} AND lo_discount BETWEEN {} AND {} "
        "AND lo_quantity < {}",
        (1998, 9, 11, 3), (1993, 0, 8, 35)),
    "q2_category": (
        "SELECT sum(lo_revenue) AS revenue, d_year, p_brand1 "
        "FROM lineorder, date, part, supplier "
        "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
        "AND lo_suppkey = s_suppkey AND p_category = '{}' "
        "AND s_region = '{}' GROUP BY d_year, p_brand1 "
        "ORDER BY d_year, p_brand1",
        ("MFGR#99", "ASIA"), ("MFGR#12", "AMERICA")),
    "q2_brand_range": (
        "SELECT sum(lo_revenue) AS revenue, d_year, p_brand1 "
        "FROM lineorder, date, part, supplier "
        "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
        "AND lo_suppkey = s_suppkey AND p_brand1 BETWEEN '{}' AND '{}' "
        "AND s_region = '{}' GROUP BY d_year, p_brand1 "
        "ORDER BY d_year, p_brand1",
        ("MFGR#2221", "MFGR#2221", "EUROPE"),
        ("MFGR#1101", "MFGR#5540", "ASIA")),
    "q3_regions": (
        "SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue "
        "FROM customer, lineorder, supplier, date "
        "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
        "AND lo_orderdate = d_datekey AND c_region = '{}' "
        "AND s_region = '{}' AND d_year >= {} AND d_year <= {} "
        "GROUP BY c_nation, s_nation, d_year "
        "ORDER BY d_year ASC, revenue DESC",
        ("ASIA", "EUROPE", 1997, 1997), ("AMERICA", "AMERICA", 1992, 1998)),
    "q3_nations": (
        "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue "
        "FROM customer, lineorder, supplier, date "
        "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
        "AND lo_orderdate = d_datekey AND c_nation = '{}' "
        "AND s_nation = '{}' AND d_year >= {} AND d_year <= {} "
        "GROUP BY c_city, s_city, d_year "
        "ORDER BY d_year ASC, revenue DESC",
        ("JAPAN", "KENYA", 1996, 1996), ("CHINA", "INDIA", 1992, 1998)),
    "q4_regions": (
        "SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit "
        "FROM date, customer, supplier, part, lineorder "
        "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
        "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
        "AND c_region = '{}' AND s_region = '{}' "
        "AND p_mfgr IN ('{}', '{}') GROUP BY d_year, c_nation "
        "ORDER BY d_year, c_nation",
        ("AFRICA", "EUROPE", "MFGR#5", "MFGR#5"),
        ("AMERICA", "ASIA", "MFGR#1", "MFGR#2")),
    "q4_category": (
        "SELECT d_year, s_city, p_brand1, "
        "sum(lo_revenue - lo_supplycost) AS profit "
        "FROM date, customer, supplier, part, lineorder "
        "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
        "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
        "AND c_region = '{}' AND s_nation = '{}' AND d_year IN ({}, {}) "
        "AND p_category = '{}' GROUP BY d_year, s_city, p_brand1 "
        "ORDER BY d_year, s_city, p_brand1",
        ("MIDDLE EAST", "PERU", 1998, 1998, "MFGR#55"),
        ("EUROPE", "BRAZIL", 1993, 1994, "MFGR#35")),
}


class TestTwoLiteralSets:
    """Two literal sets of one shape back to back through one cached
    engine: the second binds its values into the first's plan, and its
    answer, on serial and on 2 process shards, is an uncached engine's.
    The two sets' answers differ, so a shape hit that kept the first
    set's leaf products or its result-tier key would answer wrongly."""

    @pytest.mark.parametrize("shape", list(ADHOC_SHAPES))
    def test_selective_then_broad_and_back(self, ssb_air, shape):
        template, selective, broad = ADHOC_SHAPES[shape]
        texts = [template.format(*values) for values in (selective, broad)]
        uncached = fresh_engine(ssb_air, use_cache=False)
        expected = [uncached.query(sql).rows() for sql in texts]
        assert expected[0] != expected[1]
        serial = fresh_engine(ssb_air, cache_results=True)
        sharded = fresh_engine(ssb_air, cache_results=True,
                               parallel_backend="process", workers=2)
        # each order compiles the shape for its first set; the serial
        # engine binds the second set first in one, the shards in the other
        for order, engines in (((0, 1), (serial, sharded)),
                               ((1, 0), (sharded, serial))):
            serial.cache.clear()
            for position, i in enumerate(order):
                for engine in engines:
                    got = engine.query(texts[i])
                    assert got.rows() == expected[i], (shape, i, engine)
                events = engines[0].query(texts[i]).stats.cache_events
                assert events == {"result_hits": 1}
                if position:
                    assert engines[0].cache.get(
                        "plan", engines[0].result_key(texts[i]),
                        ssb_air).cache_events.get("plan_rebinds") == 1
