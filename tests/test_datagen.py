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
    codes plus dictionary values for dictionary columns, the values for
    string heaps, and raw bytes with the dtype for other fixed-width
    ones — integer values widened to int64 first, so the digest pins
    the values a column holds, not the width it stores them at."""
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
            if values.dtype.kind in "iu":
                values = values.astype(np.int64)
            if values.dtype.kind == "O":
                digest.update("\x00".join(values.tolist()).encode())
            else:
                digest.update(values.dtype.str.encode())
                digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


class TestSSBPinned:
    """The generated SSB data is pinned bit for bit.

    The digests hash integer values widened to int64.  They were
    computed at commit e2efb0a, where every ``lineorder`` column was
    still int32 or int64, so an equal digest on the narrowed generator
    means the same values.  (The digests they restate were computed at
    commit 3c30a4d, before the clustering order moved to the composite
    sort compaction uses and the part strings came from value pools.)
    An equal digest means the same rows in the same physical order, the
    same dictionaries, codes and ``lo_orderkey``, so every query result
    is unchanged too; the column widths are pinned separately."""

    @pytest.mark.parametrize("seed, expected", [
        (1, "735513de4b0a2e96676f1d006b47f317ecb8eb38f1e72bb1e96dacb12cb240f7"),
        (11, "398626b7c4a8d2a95f241007b33635546089011b745f5fbd68f120587f972d02"),
    ], ids=["seed1", "seed11"])
    def test_content_digest(self, seed, expected):
        assert content_digest(generate_ssb(sf=0.01, seed=seed)) == expected

    def test_lineorder_column_widths(self):
        lo = generate_ssb(sf=0.01, seed=1).table("lineorder")
        widths = {name: lo[name].values().dtype.name
                  for name in lo.column_names}
        assert widths == {
            "lo_orderkey": "int32", "lo_custkey": "int32",
            "lo_partkey": "int32", "lo_suppkey": "int32",
            "lo_orderdate": "int32", "lo_quantity": "int8",
            "lo_extendedprice": "int32", "lo_discount": "int8",
            "lo_revenue": "int32", "lo_supplycost": "int32",
            "lo_tax": "int8"}
        assert {name: lo[name].dtype.value
                for name in lo.column_names} == widths

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
            "735513de4b0a2e96676f1d006b47f317ecb8eb38f1e72bb1e96dacb12cb240f7")
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

    The digests hash integer values widened to int64 (see
    :class:`TestSSBPinned`); they were computed at commit e2efb0a and
    restate ones computed at commit 64950a3, before the generator built
    its tables through ``Table.wrap`` over the drawn arrays instead of
    copying them through ``create_table``."""

    @pytest.mark.parametrize("seed, airify, expected", [
        (11, True,
         "91a33e65f73a345dd0945532b2aa9720794cea1ebe3d3119b212962914b07490"),
        (11, False,
         "c9b4886e1d1c1a6116a8d7dc61f16aa73494ffd7ca3e1ff007997462a151c3e3"),
        (42, True,
         "16e296c450b1256c0e39fab921a3c56f70022f33cc939ed1f606caa5b4579b7b"),
        (42, False,
         "cf1b65a31a94ea1a7e801ab07752a5b0a23a8918cadc3d71f222429134f86c83"),
    ], ids=["seed11-air", "seed11-keys", "seed42-air", "seed42-keys"])
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
