"""Tests for the TPC-H adapted queries."""

import pytest

from repro.baselines import FusedEngine
from repro.datagen import generate_tpch
from repro.engine import AStoreEngine
from repro.workloads import TPCH_QUERIES


@pytest.fixture(scope="module")
def tpch_raw():
    return generate_tpch(sf=0.004, seed=11, airify=False)


class TestTPCHQueries:
    def test_all_bind_and_run(self, tpch_air):
        engine = AStoreEngine(tpch_air)
        for query_id, sql in TPCH_QUERIES.items():
            result = engine.query(sql)
            assert result.stats.total_seconds > 0, query_id

    @pytest.mark.parametrize("query_id", list(TPCH_QUERIES))
    def test_astore_matches_baseline(self, tpch_air, tpch_raw, query_id):
        sql = TPCH_QUERIES[query_id]
        a = AStoreEngine(tpch_air).query(sql).rows()
        b = FusedEngine(tpch_raw).query(sql).rows()
        assert a == b

    def test_q1_like_shape(self, tpch_air):
        result = AStoreEngine(tpch_air).query(TPCH_QUERIES["Q1-like"])
        quantities = [row["l_quantity"] for row in result.to_dicts()]
        assert quantities == sorted(quantities)
        assert max(quantities) <= 25

    def test_q3_adapted_uses_snowflake_chain(self, tpch_air):
        plan = AStoreEngine(tpch_air).plan(TPCH_QUERIES["Q3-adapted"])
        assert plan.logical.root == "lineitem"
        # region + o_price predicates fold onto the orders path
        assert [d.first_dim for d in plan.dim_decisions] == ["orders"]

    def test_q6_like_is_fact_only(self, tpch_air):
        plan = AStoreEngine(tpch_air).plan(TPCH_QUERIES["Q6-like"])
        assert plan.dim_decisions == ()
        assert len(plan.fact_conjuncts) == 2
