"""Tests for the AIRScan executor: correctness on hand-checkable data,
variant equivalence, parallel merge, snapshots, projections, ordering."""

import pytest

from repro.engine import AStoreEngine, EngineOptions, VARIANTS
from repro.errors import ExecutionError


class TestScalarAggregates:
    def test_count_star(self, tiny_star):
        n = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n FROM lineorder").scalar()
        assert n == 8

    def test_sum_with_fact_filter(self, tiny_star):
        total = AStoreEngine(tiny_star).query(
            "SELECT sum(lo_revenue) AS s FROM lineorder "
            "WHERE lo_discount <= 2").scalar()
        assert total == 10 + 20 + 50 + 60

    def test_avg_min_max(self, tiny_star):
        r = AStoreEngine(tiny_star).query(
            "SELECT avg(lo_revenue) AS a, min(lo_revenue) AS lo, "
            "max(lo_revenue) AS hi FROM lineorder")
        assert r.to_dicts()[0] == {"a": 45.0, "lo": 10, "hi": 80}

    def test_empty_selection_scalar(self, tiny_star):
        r = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n, sum(lo_revenue) AS s FROM lineorder "
            "WHERE lo_revenue > 999")
        assert r.to_dicts()[0]["n"] == 0
        assert r.to_dicts()[0]["s"] == 0

    def test_measure_expression(self, tiny_star):
        total = AStoreEngine(tiny_star).query(
            "SELECT sum(lo_revenue * lo_discount) AS s FROM lineorder"
        ).scalar()
        assert total == 10 + 40 + 90 + 160 + 50 + 120 + 210 + 320


class TestStarJoins:
    def test_dim_filter(self, tiny_star):
        total = AStoreEngine(tiny_star).query(
            "SELECT sum(lo_revenue) AS s FROM lineorder, customer "
            "WHERE lo_custkey = c_custkey AND c_region = 'ASIA'").scalar()
        # customers 1,2 (positions 0,1): rows 0,1,4,5 -> 10+20+50+60
        assert total == 140

    def test_two_dim_filters(self, tiny_star):
        total = AStoreEngine(tiny_star).query("""
            SELECT sum(lo_revenue) AS s FROM lineorder, customer, date
            WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey
              AND c_region = 'ASIA' AND d_year = 1998
        """).scalar()
        # ASIA rows {0,1,4,5} & 1998 rows {4,5,7} -> {4,5} -> 50+60
        assert total == 110

    def test_group_by_dim(self, tiny_star):
        r = AStoreEngine(tiny_star).query("""
            SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date
            WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year
        """)
        assert r.rows() == [(1997, 10 + 20 + 30 + 40 + 70), (1998, 190)]

    def test_group_by_fact_and_dim(self, tiny_star):
        r = AStoreEngine(tiny_star).query("""
            SELECT d_year, lo_discount, count(*) AS n FROM lineorder, date
            WHERE lo_orderdate = d_datekey AND lo_discount <= 2
            GROUP BY d_year, lo_discount ORDER BY d_year, lo_discount
        """)
        assert r.rows() == [(1997, 1, 1), (1997, 2, 1), (1998, 1, 1),
                            (1998, 2, 1)]

    def test_group_key_output_order_respected(self, tiny_star):
        r = AStoreEngine(tiny_star).query("""
            SELECT sum(lo_revenue) AS s, c_nation FROM lineorder, customer
            WHERE lo_custkey = c_custkey GROUP BY c_nation ORDER BY c_nation
        """)
        assert r.column_order == ["s", "c_nation"]
        assert r.rows()[0] == (40 + 80, "BRAZIL")


class TestSnowflake:
    def test_paper_q3_adaptation(self, tiny_snowflake):
        r = AStoreEngine(tiny_snowflake).query("""
            SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
            FROM customer, lineitem, orders, nation, region
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey
              AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA' AND o_price >= 800
            GROUP BY n_name ORDER BY revenue DESC
        """)
        # ASIA nations: CHINA(cust7), JAPAN(cust9); orders >= 800: 71, 72
        # order 71 belongs to FRANCE (EUROPE, excluded); order 72 -> JAPAN
        assert r.rows() == [("JAPAN", 40.0)]

    def test_snowflake_group_on_deep_table(self, tiny_snowflake):
        r = AStoreEngine(tiny_snowflake).query("""
            SELECT r_name, count(*) AS n FROM lineitem, orders, customer,
                   nation, region
            GROUP BY r_name ORDER BY r_name
        """)
        # lineitem chain regions: ASIA,ASIA,EUROPE,ASIA,ASIA,ASIA
        assert r.rows() == [("ASIA", 5), ("EUROPE", 1)]


class TestVariantsAgree:
    QUERIES = [
        "SELECT count(*) AS n FROM lineorder",
        """SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date, customer
           WHERE c_region = 'ASIA' AND lo_discount BETWEEN 1 AND 3
           GROUP BY d_year ORDER BY d_year""",
        """SELECT c_nation, d_year, count(*) AS n, min(lo_revenue) AS lo,
                  max(lo_revenue) AS hi, avg(lo_quantity) AS q
           FROM lineorder, date, customer
           GROUP BY c_nation, d_year ORDER BY c_nation, d_year""",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_all_variants_same_rows(self, tiny_star, sql):
        reference = None
        for variant in VARIANTS:
            rows = AStoreEngine.variant(tiny_star, variant).query(sql).rows()
            if reference is None:
                reference = rows
            assert rows == reference, variant

    def test_variant_unknown(self, tiny_star):
        with pytest.raises(ExecutionError):
            AStoreEngine.variant(tiny_star, "AIRScan_Z")

    def test_variant_stats_report_strategy(self, tiny_star):
        sql = ("SELECT d_year, count(*) AS n FROM lineorder, date "
               "WHERE d_year = 1997 GROUP BY d_year")
        g = AStoreEngine.variant(tiny_star, "AIRScan_C_P_G").query(sql)
        assert g.stats.used_array_aggregation
        assert g.stats.filter_modes == {"date": "vector"}
        c = AStoreEngine.variant(tiny_star, "AIRScan_C").query(sql)
        assert not c.stats.used_array_aggregation
        assert c.stats.filter_modes == {"date": "probe"}


class TestParallel:
    @pytest.mark.parametrize("backend", ["thread", "serial"])
    def test_parallel_matches_serial(self, ssb_air, backend):
        sql = """
            SELECT d_year, c_nation, sum(lo_revenue) AS s, count(*) AS n,
                   min(lo_discount) AS lo, max(lo_discount) AS hi
            FROM lineorder, date, customer
            WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey
              AND d_year >= 1993 GROUP BY d_year, c_nation
            ORDER BY d_year, c_nation
        """
        serial = AStoreEngine(ssb_air).query(sql).rows()
        parallel = AStoreEngine(
            ssb_air, EngineOptions(workers=4, parallel_backend=backend)
        ).query(sql).rows()
        assert parallel == serial

    def test_parallel_hash_agg_merge(self, ssb_air):
        sql = """
            SELECT c_city, s_city, sum(lo_revenue) AS s
            FROM lineorder, customer, supplier
            GROUP BY c_city, s_city ORDER BY c_city, s_city
        """
        serial = AStoreEngine(
            ssb_air, EngineOptions(use_array_aggregation=False)).query(sql)
        parallel = AStoreEngine(
            ssb_air, EngineOptions(use_array_aggregation=False, workers=3,
                           parallel_backend="thread")
        ).query(sql)
        assert not serial.stats.used_array_aggregation
        assert parallel.rows() == serial.rows()

    def test_more_workers_than_rows(self, tiny_star):
        r = AStoreEngine(
            tiny_star, EngineOptions(workers=64, parallel_backend="thread")
        ).query("SELECT count(*) AS n FROM lineorder")
        assert r.scalar() == 8


class TestProjectionQueries:
    def test_projection_with_dim_columns(self, tiny_star):
        r = AStoreEngine(tiny_star).query("""
            SELECT lo_orderkey, c_nation FROM lineorder, customer
            WHERE lo_custkey = c_custkey AND c_region = 'ASIA'
            ORDER BY lo_orderkey
        """)
        assert r.rows() == [(1, "CHINA"), (2, "JAPAN"), (5, "CHINA"),
                            (6, "JAPAN")]

    def test_projection_limit(self, tiny_star):
        r = AStoreEngine(tiny_star).query(
            "SELECT lo_orderkey FROM lineorder ORDER BY lo_orderkey DESC "
            "LIMIT 3")
        assert [row[0] for row in r.rows()] == [8, 7, 6]


class TestOrdering:
    def test_multi_key_mixed_direction(self, tiny_star):
        r = AStoreEngine(tiny_star).query("""
            SELECT d_year, c_region, sum(lo_revenue) AS s
            FROM lineorder, date, customer
            GROUP BY d_year, c_region ORDER BY d_year ASC, s DESC
        """)
        rows = r.rows()
        years = [row[0] for row in rows]
        assert years == sorted(years)
        for year in set(years):
            revs = [row[2] for row in rows if row[0] == year]
            assert revs == sorted(revs, reverse=True)

    def test_string_desc(self, tiny_star):
        r = AStoreEngine(tiny_star).query(
            "SELECT c_nation, count(*) AS n FROM lineorder, customer "
            "GROUP BY c_nation ORDER BY c_nation DESC")
        names = [row[0] for row in r.rows()]
        assert names == sorted(names, reverse=True)


class TestSnapshots:
    def test_query_at_snapshot(self, tiny_star_mvcc):
        from repro.updates import TransactionManager

        engine = AStoreEngine(tiny_star_mvcc)
        txn = TransactionManager(tiny_star_mvcc)
        before = txn.snapshot()
        txn.insert("lineorder", {
            "lo_orderkey": [9], "lo_custkey": [0], "lo_orderdate": [0],
            "lo_revenue": [1000], "lo_discount": [1], "lo_quantity": [1],
        })
        after = txn.snapshot()
        sql = "SELECT sum(lo_revenue) AS s FROM lineorder"
        assert engine.query(sql, snapshot=before).scalar() == 360
        assert engine.query(sql, snapshot=after).scalar() == 1360

    def test_deleted_rows_invisible_now(self, tiny_star):
        tiny_star.table("lineorder").delete([0, 1])
        r = AStoreEngine(tiny_star).query(
            "SELECT sum(lo_revenue) AS s FROM lineorder")
        assert r.scalar() == 360 - 30


class TestStatsAndExplain:
    def test_stage_timers_populated(self, ssb_air):
        r = AStoreEngine(ssb_air).query("""
            SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date, customer
            WHERE c_region = 'ASIA' GROUP BY d_year
        """)
        s = r.stats
        assert s.total_seconds > 0
        assert s.rows_scanned == ssb_air.table("lineorder").num_rows
        assert 0 < s.rows_selected <= s.rows_scanned
        assert s.leaf_seconds >= 0 and s.scan_seconds > 0

    def test_explain_runs(self, ssb_air):
        text = AStoreEngine(ssb_air).explain(
            "SELECT d_year, count(*) FROM lineorder, date GROUP BY d_year")
        assert "root: lineorder" in text

    def test_result_repr_and_access(self, tiny_star):
        r = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n FROM lineorder")
        assert "QueryResult" in repr(r)
        assert r.column("n")[0] == 8
        with pytest.raises(ExecutionError):
            r.column("missing")
