"""Unit tests for the catalog: references, join graph, airify, consolidation."""

import numpy as np
import pytest

from repro.core import AIRColumn, Database
from repro.errors import SchemaError


def star_db():
    """A tiny star schema with key-valued FKs (pre-airify)."""
    db = Database("star")
    db.create_table("date", {
        "d_datekey": [19970101, 19970102, 19970103],
        "d_year": [1997, 1997, 1997],
    })
    db.create_table("customer", {
        "c_custkey": [101, 102],
        "c_region": ["ASIA", "AMERICA"],
    })
    db.create_table("lineorder", {
        "lo_orderdate": [19970103, 19970101, 19970101, 19970102],
        "lo_custkey": [102, 101, 102, 101],
        "lo_revenue": [10, 20, 30, 40],
    })
    db.add_reference("lineorder", "lo_orderdate", "date", "d_datekey")
    db.add_reference("lineorder", "lo_custkey", "customer", "c_custkey")
    return db


def snowflake_db():
    """lineitem -> orders -> customer -> nation -> region, pre-airified."""
    db = Database("snow")
    db.create_table("region", {"r_regionkey": [0, 1], "r_name": ["ASIA", "EUROPE"]})
    db.create_table("nation", {
        "n_nationkey": [0, 1, 2],
        "n_name": ["CHINA", "FRANCE", "JAPAN"],
        "n_regionkey": [0, 1, 0],
    })
    db.create_table("customer", {
        "c_custkey": [7, 8], "c_nationkey": [0, 2],
    })
    db.create_table("orders", {
        "o_orderkey": [70, 71, 72], "o_custkey": [7, 8, 7],
        "o_price": [100, 900, 500],
    })
    db.create_table("lineitem", {
        "l_orderkey": [70, 70, 71, 72],
        "l_extendedprice": [1.0, 2.0, 3.0, 4.0],
    })
    db.add_reference("nation", "n_regionkey", "region", "r_regionkey")
    db.add_reference("customer", "c_nationkey", "nation", "n_nationkey")
    db.add_reference("orders", "o_custkey", "customer", "c_custkey")
    db.add_reference("lineitem", "l_orderkey", "orders", "o_orderkey")
    return db


def returns_db():
    """returns -> sales -> item: a fact table referencing another fact."""
    db = Database("returns")
    db.create_table("item", {"i_itemkey": [5, 6], "i_brand": ["x", "y"]})
    db.create_table("sales", {
        "s_ticket": [1, 2, 3], "s_itemkey": [6, 5, 6],
    })
    db.create_table("returns", {
        "r_ticket": [3, 1], "r_itemkey": [6, 6],
    })
    db.add_reference("sales", "s_itemkey", "item", "i_itemkey")
    db.add_reference("returns", "r_ticket", "sales", "s_ticket")
    db.add_reference("returns", "r_itemkey", "item", "i_itemkey")
    return db


class TestDefinition:
    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", {"a": [1]})
        with pytest.raises(SchemaError):
            db.create_table("t", {"a": [1]})

    def test_reference_validation(self):
        db = star_db()
        with pytest.raises(SchemaError):
            db.add_reference("lineorder", "nope", "date", "d_datekey")
        with pytest.raises(SchemaError):
            db.add_reference("lineorder", "lo_revenue", "date", "nope")
        with pytest.raises(SchemaError):
            db.add_reference("ghost", "c", "date", "d_datekey")

    def test_reference_for(self):
        db = star_db()
        ref = db.reference_for("lineorder", "lo_custkey")
        assert ref is not None and ref.parent_table == "customer"
        assert db.reference_for("lineorder", "lo_revenue") is None


class TestJoinGraph:
    def test_star_root(self):
        assert star_db().roots() == ["lineorder"]

    def test_snowflake_root(self):
        assert snowflake_db().roots() == ["lineitem"]

    def test_referenced_fact_is_not_a_root(self):
        # sales is the root of its own star, but returns references it,
        # so returns is the only table nothing references
        db = returns_db()
        assert db.roots() == ["returns"]
        assert [str(p) for p in db.reference_paths("sales")] == [
            "sales -> item"]
        # item is reachable from returns directly and through sales
        with pytest.raises(SchemaError, match="not a tree-shaped"):
            db.reference_paths("returns")

    def test_star_paths(self):
        paths = star_db().reference_paths("lineorder")
        assert sorted(str(p) for p in paths) == [
            "lineorder -> customer",
            "lineorder -> date",
        ]

    def test_snowflake_paths_deepen(self):
        paths = snowflake_db().reference_paths("lineitem")
        assert [p.leaf for p in paths] == ["orders", "customer", "nation", "region"]
        assert str(paths[-1]) == "lineitem -> orders -> customer -> nation -> region"

    def test_restricted_paths(self):
        paths = snowflake_db().reference_paths(
            "lineitem", restrict_to={"orders", "customer"})
        assert [p.leaf for p in paths] == ["orders", "customer"]


class TestAirify:
    def test_star_airify_maps_keys_to_positions(self):
        db = star_db()
        db.airify()
        lo = db.table("lineorder")
        assert isinstance(lo["lo_orderdate"], AIRColumn)
        # 19970103 is at date position 2, 19970101 at 0, 19970102 at 1
        assert lo["lo_orderdate"].values().tolist() == [2, 0, 0, 1]
        assert lo["lo_custkey"].values().tolist() == [1, 0, 1, 0]

    def test_airify_idempotent(self):
        db = star_db()
        db.airify()
        before = db.table("lineorder")["lo_custkey"].values().tolist()
        db.airify()
        assert db.table("lineorder")["lo_custkey"].values().tolist() == before

    def test_airify_snowflake_chain(self):
        db = snowflake_db()
        db.airify()
        assert db.table("customer")["c_nationkey"].values().tolist() == [0, 2]
        assert db.table("orders")["o_custkey"].values().tolist() == [0, 1, 0]
        assert db.table("lineitem")["l_orderkey"].values().tolist() == [0, 0, 1, 2]

    def test_dangling_fk_rejected(self):
        db = Database()
        db.create_table("dim", {"k": [1, 2]})
        db.create_table("fact", {"fk": [1, 3]})
        db.add_reference("fact", "fk", "dim", "k")
        with pytest.raises(SchemaError):
            db.airify()

    def test_positional_reference_without_key(self):
        db = Database()
        db.create_table("dim", {"v": ["a", "b", "c"]})
        db.create_table("fact", {"fk": [2, 0]})
        db.add_reference("fact", "fk", "dim")  # already positional
        db.airify()
        assert isinstance(db.table("fact")["fk"], AIRColumn)

    @pytest.mark.parametrize("keys, fks", [
        (np.arange(6), [5, 0, 3, 3]),                   # dense from 0
        (np.arange(100, 106), [105, 100, 103]),         # offset dense
        (np.array([4, 9, 2, 7]), [2, 7, 9, 4, 2]),      # not dense
        (np.arange(10, 14), [10, 14]),                  # dangling above
        (np.arange(10, 14), [9, 11]),                   # dangling below
    ])
    def test_dense_key_fast_path_matches_search(self, keys, fks):
        from repro.core.schema import (
            _dense_key_positions,
            _sorted_key_positions,
        )

        fks = np.asarray(fks)
        try:
            expected = _sorted_key_positions(keys, fks)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as dense_error:
                _dense_key_positions(keys, fks)
            assert str(dense_error.value) == str(exc)
            return
        dense = _dense_key_positions(keys, fks)
        if not bool((np.diff(keys) == 1).all()):
            assert dense is None
        else:
            assert dense.dtype == expected.dtype
            assert np.array_equal(dense, expected)

    def test_string_key_airify(self):
        db = Database()
        db.create_table("dim", {"code": [f"c{i}" for i in range(50)]})
        db.create_table("fact", {"fk": ["c7", "c0", "c49"]})
        db.add_reference("fact", "fk", "dim", "code")
        db.airify()
        assert db.table("fact")["fk"].values().tolist() == [7, 0, 49]


class TestConsolidateWithReferences:
    def test_air_rewrite(self):
        db = star_db()
        db.airify()
        customer = db.table("customer")
        # add a third customer then delete the first; lineorder refs move
        customer.insert({"c_custkey": [103], "c_region": ["EUROPE"]})
        lo = db.table("lineorder")
        lo.update([0, 2], {"lo_custkey": [2, 2]})  # repoint rows to customer 2
        lo.update([1, 3], {"lo_custkey": [1, 1]})
        customer.delete([0])
        db.consolidate("customer")
        assert customer.num_rows == 2
        # old position 1 -> 0, old 2 -> 1
        assert lo["lo_custkey"].values().tolist() == [1, 0, 1, 0]

    def test_consolidate_rejects_dangling(self):
        db = star_db()
        db.airify()
        db.table("customer").delete([0])  # customer 0 still referenced
        with pytest.raises(SchemaError):
            db.consolidate("customer")

    def test_footprint(self):
        assert star_db().nbytes > 0
