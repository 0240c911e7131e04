"""Edge-case and failure-injection tests for the engine."""

import numpy as np
import pytest

from repro.core import Database
from repro.engine import AStoreEngine, EngineOptions, VARIANTS
from repro.errors import BindError, ExecutionError, PlanError



def empty_star() -> Database:
    """A star schema whose fact table has zero rows."""
    db = Database("empty")
    db.create_table("dim", {"k": [1, 2], "label": ["a", "b"]},
                    dict_threshold=1.0)
    db.create_table("fact", {
        "fk": np.empty(0, dtype=np.int64),
        "value": np.empty(0, dtype=np.int64),
    })
    db.add_reference("fact", "fk", "dim", "k")
    db.airify()
    return db


class TestEmptyInputs:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_empty_fact_scalar(self, variant):
        db = empty_star()
        result = AStoreEngine.variant(db, variant).query(
            "SELECT count(*) AS n, sum(value) AS s FROM fact")
        assert result.to_dicts()[0]["n"] == 0

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_empty_fact_grouped(self, variant):
        db = empty_star()
        result = AStoreEngine.variant(db, variant).query(
            "SELECT label, count(*) AS n FROM fact, dim GROUP BY label")
        assert len(result) == 0

    def test_empty_fact_projection(self):
        db = empty_star()
        result = AStoreEngine(db).query("SELECT value FROM fact")
        assert len(result) == 0

    def test_all_rows_deleted(self, tiny_star):
        tiny_star.table("lineorder").delete(range(8))
        result = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n FROM lineorder")
        assert result.scalar() == 0

    def test_empty_dimension_filter_result(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT d_year, count(*) AS n FROM lineorder, date, customer "
            "WHERE c_region = 'ANTARCTICA' GROUP BY d_year")
        assert len(result) == 0


class TestDegenerateQueries:
    def test_single_row_fact(self):
        db = Database("one")
        db.create_table("dim", {"k": [5], "name": ["only"]},
                        dict_threshold=1.0)
        db.create_table("fact", {"fk": [5], "v": [42]})
        db.add_reference("fact", "fk", "dim", "k")
        db.airify()
        result = AStoreEngine(db).query(
            "SELECT name, sum(v) AS s FROM fact, dim GROUP BY name")
        assert result.rows() == [("only", 42)]

    def test_group_by_constant_cardinality_one(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT d_month, count(*) AS n FROM lineorder, date "
            "GROUP BY d_month")
        assert result.rows() == [("Jan", 8)]

    def test_all_rows_one_group(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n, min(lo_revenue) AS lo, "
            "max(lo_revenue) AS hi, avg(lo_revenue) AS a FROM lineorder")
        assert result.to_dicts()[0] == {"n": 8, "lo": 10, "hi": 80, "a": 45.0}

    def test_limit_zero(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT lo_orderkey FROM lineorder LIMIT 0")
        assert len(result) == 0

    def test_limit_exceeds_rows(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT d_year, count(*) AS n FROM lineorder, date "
            "GROUP BY d_year LIMIT 100")
        assert len(result) == 2

    def test_predicate_always_true(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n FROM lineorder WHERE lo_revenue >= 0")
        assert result.scalar() == 8

    def test_or_across_fact_columns(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n FROM lineorder "
            "WHERE lo_discount = 1 OR lo_quantity >= 40")
        assert result.scalar() == 3  # rows 0, 4 (discount) + row 7 (qty)

    def test_not_predicate(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n FROM lineorder WHERE NOT lo_discount = 1")
        assert result.scalar() == 6

    def test_arithmetic_in_predicate(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT count(*) AS n FROM lineorder "
            "WHERE lo_revenue + lo_discount > 52")
        # revenues 10..80 with discounts 1..4; rev+disc > 52 -> rows 5..7
        assert result.scalar() == 3

    def test_division_measure(self, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT sum(lo_revenue / lo_quantity) AS ratio FROM lineorder")
        expected = sum(r / q for r, q in zip(
            [10, 20, 30, 40, 50, 60, 70, 80], [5, 10, 15, 20, 25, 30, 35, 40]))
        assert result.scalar() == pytest.approx(expected)


class TestConfigurationEdges:
    def test_tiny_chunk_rows_row_scan(self, tiny_star):
        engine = AStoreEngine(
            tiny_star, EngineOptions(scan="row", chunk_rows=2,
                                     use_array_aggregation=False))
        result = engine.query(
            "SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date "
            "GROUP BY d_year ORDER BY d_year")
        assert result.rows() == [(1997, 170), (1998, 190)]

    def test_forced_array_agg_on_fused_axes(self, tiny_star):
        engine = AStoreEngine(
            tiny_star, EngineOptions(use_array_aggregation=True))
        result = engine.query(
            "SELECT d_year, d_month, count(*) AS n FROM lineorder, date "
            "GROUP BY d_year, d_month ORDER BY d_year")
        assert result.rows() == [(1997, "Jan", 5), (1998, "Jan", 3)]

    def test_snapshot_with_parallel_workers(self, tiny_star_mvcc):
        from repro.updates import TransactionManager

        txn = TransactionManager(tiny_star_mvcc)
        before = txn.snapshot()
        txn.delete("lineorder", [0, 1, 2, 3])
        engine = AStoreEngine(tiny_star_mvcc, EngineOptions(
            workers=3, parallel_backend="thread"))
        sql = "SELECT sum(lo_revenue) AS s FROM lineorder"
        assert engine.query(sql, snapshot=before).scalar() == 360
        assert engine.query(sql, snapshot=txn.snapshot()).scalar() == 260

    def test_executing_same_plan_twice(self, tiny_star):
        engine = AStoreEngine(tiny_star)
        physical = engine.plan("SELECT count(*) AS n FROM lineorder")
        first = engine.execute(physical).scalar()
        second = engine.execute(physical).scalar()
        assert first == second == 8

    def test_plan_survives_data_growth(self, tiny_star):
        """A cached plan executed after inserts sees the new rows."""
        engine = AStoreEngine(tiny_star)
        physical = engine.plan("SELECT count(*) AS n FROM lineorder")
        assert engine.execute(physical).scalar() == 8
        tiny_star.table("lineorder").insert({
            "lo_orderkey": [9], "lo_custkey": [0], "lo_orderdate": [0],
            "lo_revenue": [5], "lo_discount": [1], "lo_quantity": [1]})
        assert engine.execute(physical).scalar() == 9


class TestFailureInjection:
    def test_query_against_unairified_db_fails_cleanly(self):
        db = Database("raw")
        db.create_table("dim", {"k": [1], "v": [10]})
        db.create_table("fact", {"fk": [1], "m": [5]})
        db.add_reference("fact", "fk", "dim", "k")  # no airify()
        with pytest.raises(ExecutionError):
            AStoreEngine(db).query(
                "SELECT v, sum(m) AS s FROM fact, dim GROUP BY v")

    def test_group_by_unreachable_table(self, tiny_star):
        with pytest.raises((BindError, PlanError, ExecutionError)):
            AStoreEngine(tiny_star).query(
                "SELECT s_nation, count(*) FROM lineorder GROUP BY s_nation")

    def test_aggregate_of_string_column_fails_cleanly(self, tiny_star):
        with pytest.raises(Exception):
            AStoreEngine(tiny_star).query(
                "SELECT sum(c_nation) AS s FROM lineorder, customer")
