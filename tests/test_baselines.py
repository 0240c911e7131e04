"""Tests for the baseline engines beyond cross-engine agreement."""

import numpy as np
import pytest

from repro.baselines import (
    DenormalizedEngine,
    FusedEngine,
    MaterializingEngine,
    VectorizedPipelineEngine,
    materialize_universal,
)
from repro.baselines.common import HashJoinProvider, build_hash_tables
from repro.datagen import generate_ssb
from repro.errors import PlanError, SchemaError
from repro.plan import bind

from .conftest import build_tiny_snowflake


def tiny_star_raw():
    """Tiny star with key-valued FKs (manual construction, no airify)."""
    from repro.core import Database

    db = Database("tiny_raw")
    db.create_table("date", {
        "d_datekey": [19970101, 19970102, 19980101],
        "d_year": [1997, 1997, 1998],
    })
    db.create_table("customer", {
        "c_custkey": [1, 2, 3, 4],
        "c_region": ["ASIA", "ASIA", "EUROPE", "AMERICA"],
    }, dict_threshold=1.0)
    db.create_table("lineorder", {
        "lo_custkey": [1, 2, 3, 4, 1, 2, 3, 4],
        "lo_orderdate": [19970101, 19970101, 19970102, 19970102,
                         19980101, 19980101, 19970101, 19980101],
        "lo_revenue": [10, 20, 30, 40, 50, 60, 70, 80],
    })
    db.add_reference("lineorder", "lo_custkey", "customer", "c_custkey")
    db.add_reference("lineorder", "lo_orderdate", "date", "d_datekey")
    return db


class TestHashJoinProvider:
    def test_resolves_dim_positions_by_probe(self):
        db = tiny_star_raw()
        logical = bind("SELECT count(*) FROM lineorder, customer", db)
        tables = build_hash_tables(db, logical)
        from repro.engine.slice import chain_map

        provider = HashJoinProvider(
            db, "lineorder", chain_map(logical.paths, "lineorder"), tables,
            np.array([0, 3]))
        # rows 0,3 have custkeys 1,4 -> customer positions 0,3
        assert provider.positions_for("customer").tolist() == [0, 3]

    def test_fetch_dim_attribute(self):
        db = tiny_star_raw()
        logical = bind("SELECT count(*) FROM lineorder, customer", db)
        tables = build_hash_tables(db, logical)
        from repro.engine.slice import chain_map

        provider = HashJoinProvider(
            db, "lineorder", chain_map(logical.paths, "lineorder"), tables,
            None)
        values = list(provider.fetch("customer", "c_region").decode())
        assert values == ["ASIA", "ASIA", "EUROPE", "AMERICA"] * 2


class TestBaselineBasics:
    @pytest.mark.parametrize("engine_cls", [
        MaterializingEngine, FusedEngine, VectorizedPipelineEngine])
    def test_simple_star_query(self, engine_cls):
        db = tiny_star_raw()
        result = engine_cls(db).query(
            "SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year")
        assert result.rows() == [(1997, 170), (1998, 190)]

    @pytest.mark.parametrize("engine_cls", [
        MaterializingEngine, FusedEngine, VectorizedPipelineEngine])
    def test_empty_selection(self, engine_cls):
        db = tiny_star_raw()
        result = engine_cls(db).query(
            "SELECT count(*) AS n FROM lineorder WHERE lo_revenue > 9999")
        assert result.to_dicts()[0]["n"] == 0

    @pytest.mark.parametrize("engine_cls", [
        MaterializingEngine, FusedEngine, VectorizedPipelineEngine])
    def test_projection_rejected(self, engine_cls):
        db = tiny_star_raw()
        with pytest.raises(PlanError):
            engine_cls(db).query("SELECT lo_revenue FROM lineorder")

    def test_stats_populated(self):
        db = tiny_star_raw()
        result = MaterializingEngine(db).query(
            "SELECT count(*) AS n FROM lineorder, customer "
            "WHERE c_region = 'ASIA'")
        stats = result.stats
        assert stats.variant == "materializing"
        assert stats.rows_scanned == 8 and stats.rows_selected == 4
        assert stats.total_seconds > 0

    def test_deleted_rows_excluded(self):
        db = tiny_star_raw()
        db.table("lineorder").delete([0])
        n = FusedEngine(db).query(
            "SELECT count(*) AS n FROM lineorder").to_dicts()[0]["n"]
        assert n == 7

    def test_snowflake_on_baseline(self):
        db = build_tiny_snowflake()
        # baselines need key-valued FKs; rebuild without airify
        raw = _snowflake_raw()
        result = FusedEngine(raw).query("""
            SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
            FROM customer, lineitem, orders, nation, region
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey
              AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA' AND o_price >= 800
            GROUP BY n_name ORDER BY revenue DESC
        """)
        from repro.engine import AStoreEngine

        expected = AStoreEngine(db).query("""
            SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
            FROM customer, lineitem, orders, nation, region
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey
              AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA' AND o_price >= 800
            GROUP BY n_name ORDER BY revenue DESC
        """).rows()
        assert result.rows() == expected


def _snowflake_raw():
    from repro.core import Database

    db = Database("snow_raw")
    db.create_table("region", {
        "r_regionkey": [0, 1], "r_name": ["ASIA", "EUROPE"]},
        dict_threshold=1.0)
    db.create_table("nation", {
        "n_nationkey": [0, 1, 2],
        "n_name": ["CHINA", "FRANCE", "JAPAN"],
        "n_regionkey": [0, 1, 0]}, dict_threshold=1.0)
    db.create_table("customer", {
        "c_custkey": [7, 8, 9], "c_nationkey": [0, 1, 2]})
    db.create_table("orders", {
        "o_orderkey": [70, 71, 72, 73],
        "o_custkey": [7, 8, 9, 7],
        "o_price": [100, 900, 850, 500]})
    db.create_table("lineitem", {
        "l_orderkey": [70, 70, 71, 72, 73, 73],
        "l_extendedprice": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        "l_discount": [0.0, 0.5, 0.1, 0.0, 0.2, 0.5]})
    db.add_reference("nation", "n_regionkey", "region", "r_regionkey")
    db.add_reference("customer", "c_nationkey", "nation", "n_nationkey")
    db.add_reference("orders", "o_custkey", "customer", "c_custkey")
    db.add_reference("lineitem", "l_orderkey", "orders", "o_orderkey")
    return db


class TestDenormalized:
    def test_footprint_exceeds_source(self):
        db = generate_ssb(sf=0.002, seed=5)
        engine = DenormalizedEngine(db)
        assert engine.nbytes > db.nbytes

    def test_root_deletes_carry_into_wide_table(self):
        from repro.engine import AStoreEngine, EngineOptions
        from repro.workloads import SSB_QUERIES

        db = generate_ssb(sf=0.01, seed=11)
        fact = db.table("lineorder")
        rng = np.random.default_rng(7)
        fact.delete(rng.choice(fact.num_rows, fact.num_rows // 20,
                               replace=False))
        oracle = DenormalizedEngine(db)
        universal = oracle.wide.table("universal")
        assert universal.num_rows == fact.num_rows
        assert np.array_equal(universal.live_mask(), fact.live_mask())
        serial = AStoreEngine(db, EngineOptions(parallel_backend="serial"))
        for qid, sql in SSB_QUERIES.items():
            assert (sorted(oracle.query(sql).rows())
                    == sorted(serial.query(sql).rows())), qid

    def test_multi_root_rejected(self):
        from repro.core import Database

        db = Database("two_roots")
        db.create_table("a", {"x": [1]})
        db.create_table("b", {"y": [1]})
        with pytest.raises(SchemaError):
            materialize_universal(db)

    def test_name_collisions_prefixed(self):
        from repro.core import Database

        db = Database("clash")
        db.create_table("dim", {"k": [0, 1], "value": [10, 20]})
        db.create_table("fact", {"fk": [0, 1, 1], "value": [1, 2, 3]})
        db.add_reference("fact", "fk", "dim", "k")
        db.airify()
        wide = materialize_universal(db)
        universal = wide.table("universal")
        assert "value" in universal and "dim_value" in universal
        assert universal["dim_value"].values().tolist() == [10, 20, 20]
