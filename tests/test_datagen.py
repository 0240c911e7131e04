"""Tests for the SSB and TPC-H data generators."""

import numpy as np
import pytest

from repro.core import AIRColumn
from repro.datagen import (
    NATION_LIST,
    REGIONS,
    city_of,
    generate_ssb,
    generate_tpch,
)


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(sf=0.002, seed=7)


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(sf=0.002, seed=7)


class TestSSB:
    def test_tables_present(self, ssb):
        assert set(ssb.tables) == {"lineorder", "date", "customer", "supplier", "part"}

    def test_root_is_lineorder(self, ssb):
        assert ssb.roots() == ["lineorder"]

    def test_scale(self, ssb):
        assert ssb.table("lineorder").num_rows == 12_000
        assert ssb.table("customer").num_rows == 60
        # the date dimension is fixed at 7 years regardless of SF
        assert ssb.table("date").num_rows == 2_557

    def test_fact_fks_are_air(self, ssb):
        lo = ssb.table("lineorder")
        for fk in ("lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate"):
            assert isinstance(lo[fk], AIRColumn)
            vals = lo[fk].values()
            parent = ssb.table(lo[fk].referenced_table)
            assert vals.min() >= 0 and vals.max() < parent.num_rows

    def test_air_consistency_with_keys(self, ssb):
        """AIR positions must decode to the original key values."""
        raw = generate_ssb(sf=0.002, seed=7, airify=False)
        lo_air = ssb.table("lineorder")["lo_orderdate"].values()
        lo_raw = raw.table("lineorder")["lo_orderdate"].values()
        datekeys = ssb.table("date")["d_datekey"].values()
        assert np.array_equal(datekeys[lo_air], lo_raw)

    def test_deterministic(self):
        a = generate_ssb(sf=0.001, seed=3)
        b = generate_ssb(sf=0.001, seed=3)
        assert np.array_equal(
            a.table("lineorder")["lo_revenue"].values(),
            b.table("lineorder")["lo_revenue"].values(),
        )

    def test_seed_changes_data(self):
        a = generate_ssb(sf=0.001, seed=3)
        b = generate_ssb(sf=0.001, seed=4)
        assert not np.array_equal(
            a.table("lineorder")["lo_revenue"].values(),
            b.table("lineorder")["lo_revenue"].values(),
        )

    def test_value_domains(self, ssb):
        lo = ssb.table("lineorder")
        assert lo["lo_discount"].values().min() >= 0
        assert lo["lo_discount"].values().max() <= 10
        assert lo["lo_quantity"].values().min() >= 1
        assert lo["lo_quantity"].values().max() <= 50
        cust = ssb.table("customer")
        assert set(cust["c_region"].values()) <= set(REGIONS)
        assert set(cust["c_nation"].values()) <= set(NATION_LIST)

    def test_revenue_formula(self, ssb):
        lo = ssb.table("lineorder")
        expected = (lo["lo_extendedprice"].values()
                    * (100 - lo["lo_discount"].values()) // 100)
        assert np.array_equal(lo["lo_revenue"].values(), expected)

    def test_city_encoding(self):
        assert city_of("UNITED KINGDOM", 1) == "UNITED KI1"
        assert city_of("CHINA", 0) == "CHINA    0"

    def test_part_hierarchy(self, ssb):
        part = ssb.table("part")
        for mfgr, cat, brand in zip(part["p_mfgr"].values(),
                                    part["p_category"].values(),
                                    part["p_brand1"].values()):
            assert cat.startswith(mfgr)
            assert brand.startswith(cat)

    def test_date_dimension_fields(self, ssb):
        d = ssb.table("date")
        years = d["d_year"].values()
        assert years.min() == 1992 and years.max() == 1998
        ymn = d["d_yearmonthnum"].values()
        assert ymn[0] == 199201
        assert d["d_yearmonth"].get(0) == "Jan1992"


class TestTPCH:
    def test_snowflake_paths(self, tpch):
        paths = tpch.reference_paths("lineitem")
        chains = {str(p) for p in paths}
        assert "lineitem -> orders -> customer -> nation -> region" in chains

    def test_root(self, tpch):
        assert tpch.roots() == ["lineitem"]

    def test_nation_region_mapping(self, tpch):
        nation = tpch.table("nation")
        region = tpch.table("region")
        rk = nation["n_regionkey"].values()
        assert len(nation) == 25
        assert all(region["r_name"].get(int(k)) in REGIONS for k in rk)

    def test_air_chain(self, tpch):
        orders = tpch.table("orders")
        assert isinstance(orders["o_custkey"], AIRColumn)
        assert orders["o_custkey"].values().max() < tpch.table("customer").num_rows
