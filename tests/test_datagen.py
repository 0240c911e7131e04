"""Tests for the SSB and TPC-H data generators."""

import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from repro.core import AIRColumn, DictColumn
from repro.core.compaction import clustering_sort_order
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


def content_digest(db):
    """SHA-256 over every table's column contents in physical order:
    codes plus dictionary values for dictionary columns, raw bytes (with
    the dtype) for fixed-width ones, the values for string heaps."""
    digest = hashlib.sha256()
    for tname in sorted(db.tables):
        table = db.table(tname)
        digest.update(f"table {tname} {table.num_rows}\n".encode())
        for cname in table.column_names:
            column = table[cname]
            digest.update(f"column {cname} {type(column).__name__}\n".encode())
            if isinstance(column, DictColumn):
                digest.update(np.ascontiguousarray(column.codes()).tobytes())
                digest.update("\x00".join(column.dictionary.values).encode())
                continue
            values = column.values()
            if values.dtype.kind == "O":
                digest.update("\x00".join(values.tolist()).encode())
            else:
                digest.update(values.dtype.str.encode())
                digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


class TestSSBPinned:
    """The generated SSB data is pinned bit for bit.

    The digests were computed at commit 3c30a4d, before the generator's
    clustering order moved from a five-key ``np.lexsort`` to the
    composite sort compaction uses and before the part strings came
    from value pools.  An equal digest means the same rows in the same
    physical order, the same dictionaries, codes and ``lo_orderkey``, so
    every query result and image byte is unchanged too."""

    @pytest.mark.parametrize("seed, expected", [
        (1, "a17b04da96c0422766687a4a650cf46c7b95bba87ee35a602bfe11a91e65c849"),
        (11, "c2f5b6caec6df8757b91bbcd54da10baddab2597bbc9567113579ef6f877ac6c"),
    ])
    def test_content_digest(self, seed, expected):
        assert content_digest(generate_ssb(sf=0.01, seed=seed)) == expected

    def test_generation_lands_in_compaction_order(self):
        db = generate_ssb(sf=0.01, seed=11)
        order = clustering_sort_order(db, "lineorder",
                                      db.clustering["lineorder"])
        assert np.array_equal(order,
                              np.arange(db.table("lineorder").num_rows))


class TestSSBLoad:
    """How ``lineorder`` is built: the key-valued and the AIR load hold
    the same data, the generated columns own separate buffers, and the
    build holds little more than the data it returns."""

    FKS = {"lo_custkey": "customer", "lo_partkey": "part",
           "lo_suppkey": "supplier"}

    def test_key_valued_load_airifies_to_the_pinned_data(self):
        db = generate_ssb(sf=0.01, seed=1, airify=False)
        lo = db.table("lineorder")
        raw = {name: lo[name].values()
               for name in (*self.FKS, "lo_orderdate")}
        db.airify()
        # the seed-1 digest pinned in TestSSBPinned
        assert content_digest(db) == (
            "a17b04da96c0422766687a4a650cf46c7b95bba87ee35a602bfe11a91e65c849")
        for name, parent in self.FKS.items():
            assert lo[name].referenced_table == parent
            assert np.array_equal(raw[name], lo[name].values() + 1)
        datekeys = db.table("date")["d_datekey"].values()
        assert np.array_equal(raw["lo_orderdate"],
                              datekeys[lo["lo_orderdate"].values()])

    @pytest.mark.parametrize("airify", [True, False])
    def test_generated_columns_do_not_alias(self, airify):
        lo = generate_ssb(sf=0.002, seed=7, airify=airify).table("lineorder")
        arrays = {name: lo[name].values() for name in lo.column_names}
        for name, values in arrays.items():
            assert values.flags.writeable, name
        for a, b in combinations(arrays, 2):
            assert not np.shares_memory(arrays[a], arrays[b]), (a, b)
        before = {name: values.copy() for name, values in arrays.items()}
        rows = np.arange(0, lo.num_rows, 7)
        lo.update(rows, {"lo_extendedprice": np.full(len(rows), 1)})
        for name in arrays:
            if name != "lo_extendedprice":
                assert lo[name].values().tobytes() == before[name].tobytes(), name
        assert (lo["lo_extendedprice"].values()[rows] == 1).all()

    def test_generation_peak_stays_near_the_data(self):
        tracemalloc.start()
        try:
            db = generate_ssb(sf=0.05, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * db.nbytes, (peak, db.nbytes)


class TestTPCHPinned:
    """The generated TPC-H data is pinned bit for bit, in both loads.

    The digests were computed at commit 64950a3, before the generator
    built its tables through ``Table.wrap`` over the drawn arrays instead
    of copying them through ``create_table``."""

    @pytest.mark.parametrize("seed, airify, expected", [
        (11, True,
         "b96052deae709a3aea0f2b4568adae03330041455434c409dbec15a48fe6377b"),
        (11, False,
         "1912eeb44ab959f763059cdd8ff188f9b69e961602df569d8f9eb637400d9fe5"),
        (42, True,
         "e573eb8a3b6245dc6ebee05b848ebc5b46b7294244d912901138e3f60171438a"),
        (42, False,
         "8ee848cb594b67e7cb14044bc9f497ec0db0d5220b0ef967648f1a6c017a3176"),
    ])
    def test_content_digest(self, seed, airify, expected):
        db = generate_tpch(sf=0.004, seed=seed, airify=airify)
        assert content_digest(db) == expected

    def test_generation_peak_stays_near_the_data(self):
        tracemalloc.start()
        try:
            db = generate_tpch(sf=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * db.nbytes, (peak, db.nbytes)


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
