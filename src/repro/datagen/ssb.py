"""Star Schema Benchmark (SSB) data generator.

Generates the four SSB tables (``lineorder`` fact; ``date``, ``customer``,
``supplier``, ``part`` dimensions) with the official schema's value domains
and cardinality ratios, at a configurable scale factor.  SF=1 corresponds
to the official 6,000,000-row lineorder; the paper runs SF=100, this repo
defaults to laptop scales (SF=0.01; the end-to-end benchmark's scan
workloads run SF=1).

Value domains follow the SSB specification closely enough that the
original predicate selectivities are preserved:

* 25 nations in 5 regions; city = first 9 characters of the nation name
  padded to width 9, plus a digit 0-9 (so ``UNITED KI1`` … exist);
* ``p_mfgr`` in MFGR#1..5, ``p_category`` = mfgr + digit 1..5 (25 values),
  ``p_brand1`` = category + 1..40 (1000 values);
* ``lo_discount`` 0..10, ``lo_quantity`` 1..50, 7 years of dates.

Each ``lineorder`` measure, and ``lo_orderkey``, is stored at the
narrowest integer width that holds its domain (``int8`` quantity,
discount and tax; ``int32`` prices, revenue, supply cost and order key
at SF=1).  The four AIR foreign keys are drawn, permuted and stored at
``int32``, the width of a position into any dimension below 2^31 rows
(:func:`~repro.core.types.reference_type`): 37 bytes per fact row.
"""

from __future__ import annotations

import numpy as np

from ..core import AIRColumn, Database, DataType, FixedColumn, Table
from ..core.column import (empty_buffer, gather_into, make_coded_column,
                           make_column)
from ..core.compaction import composite_sort_order
from ..core.types import narrowest_int_type
from .distributions import (drawn, filled, rng_for, scaled_rows, serial_keys,
                            uniform_keys)

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

# 5 nations per region, as in SSB/TPC-H (region -> nations)
NATIONS = {
    "AFRICA": ["ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"],
    "AMERICA": ["ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"],
    "ASIA": ["CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"],
    "EUROPE": ["FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"],
    "MIDDLE EAST": ["EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"],
}

NATION_LIST = [n for region in REGIONS for n in NATIONS[region]]
REGION_OF_NATION = {n: r for r, ns in NATIONS.items() for n in ns}

MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
_DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]

FIRST_YEAR = 1992
NUM_YEARS = 7  # 1992..1998, as in SSB

# SF=1 table sizes from the SSB specification
LINEORDER_BASE = 6_000_000
CUSTOMER_BASE = 30_000
SUPPLIER_BASE = 2_000
PART_BASE = 200_000

COLORS = ["red", "green", "blue", "ivory", "maroon", "plum", "powder"]


def city_of(nation: str, digit: int) -> str:
    """SSB city encoding: 9-char nation prefix + a digit (``UNITED KI1``)."""
    return f"{nation:<9.9}{digit}"


#: every SSB city, indexed nation * 10 + digit
_CITIES = [city_of(n, d) for n in NATION_LIST for d in range(10)]


def _date_rows() -> dict:
    """The full 7-year date dimension (fixed size, independent of SF)."""
    datekey, year, month_num, week = [], [], [], []
    yearmonthnum, yearmonth, month_name = [], [], []
    for y in range(FIRST_YEAR, FIRST_YEAR + NUM_YEARS):
        day_of_year = 0
        for m in range(12):
            days = _DAYS_IN_MONTH[m] + (1 if m == 1 and _is_leap(y) else 0)
            for d in range(1, days + 1):
                day_of_year += 1
                datekey.append(y * 10000 + (m + 1) * 100 + d)
                year.append(y)
                month_num.append(m + 1)
                week.append(min(53, (day_of_year - 1) // 7 + 1))
                yearmonthnum.append(y * 100 + m + 1)
                yearmonth.append(f"{MONTH_NAMES[m]}{y}")
                month_name.append(MONTH_NAMES[m])
    return {
        "d_datekey": np.array(datekey, dtype=np.int64),
        "d_year": np.array(year, dtype=np.int32),
        "d_monthnuminyear": np.array(month_num, dtype=np.int32),
        "d_weeknuminyear": np.array(week, dtype=np.int32),
        "d_yearmonthnum": np.array(yearmonthnum, dtype=np.int32),
        "d_yearmonth": yearmonth,
        "d_month": month_name,
    }


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def generate_ssb(sf: float = 0.01, seed: int = 42, airify: bool = True) -> Database:
    """Generate an SSB database at scale factor *sf*.

    The generator draws each fact row's customer, part, supplier and date
    as parent array positions.  With ``airify=True`` (the A-Store load
    path) the four foreign keys are AIR columns over those positions as
    drawn, so :meth:`~repro.core.schema.Database.airify` has nothing left
    to map.  With ``airify=False`` they hold the key values the positions
    index (position + 1 for the surrogate keys, ``d_datekey`` for the
    date), as a conventional engine would store them; ``db.airify()``
    then maps them back to the same positions, bit for bit.
    """
    db = Database(f"ssb_sf{sf}")

    date_data = _date_rows()
    db.create_table("date", date_data)
    n_dates = len(date_data["d_datekey"])

    # dimension strings are drawn as codes into small value pools and
    # encoded from the codes (make_coded_column): no string per row
    def dimension(name, n, columns):
        db.add_table(Table.wrap(name, columns, n))

    def coded(name, codes, pool):
        return make_coded_column(name, codes, pool, dict_threshold=0.95)

    def geography(prefix, n, rng):
        # the nation is drawn as a NATION_LIST index, which is region-
        # major, so the region index is the nation's // 5; a city
        # index is nation * 10 + the drawn digit
        nation = rng.integers(0, len(NATION_LIST), size=n)
        city = nation * 10 + rng.integers(0, 10, n)
        return [
            coded(f"{prefix}_city", city, _CITIES),
            coded(f"{prefix}_nation", nation, NATION_LIST),
            coded(f"{prefix}_region", nation // 5, REGIONS),
        ]

    n_customer = scaled_rows(CUSTOMER_BASE, sf)
    dimension("customer", n_customer, [
        make_column("c_custkey", serial_keys(n_customer)),
        make_column("c_name", [f"Customer#{i:09d}"
                               for i in range(1, n_customer + 1)],
                    dict_threshold=0.95),
        *geography("c", n_customer, rng_for(seed, "customer")),
    ])

    n_supplier = scaled_rows(SUPPLIER_BASE, sf)
    dimension("supplier", n_supplier, [
        make_column("s_suppkey", serial_keys(n_supplier)),
        make_column("s_name", [f"Supplier#{i:09d}"
                               for i in range(1, n_supplier + 1)],
                    dict_threshold=0.95),
        *geography("s", n_supplier, rng_for(seed, "supplier")),
    ])

    # part: SF=1 has 200k rows; official growth is logarithmic in SF but a
    # linear floor keeps small scales meaningful.
    n_part = scaled_rows(PART_BASE, min(1.0, sf) if sf < 1 else 1 + np.log2(sf) / 7)
    rng = rng_for(seed, "part")
    mfgr_idx = rng.integers(1, 6, n_part)
    cat_idx = rng.integers(1, 6, n_part)
    brand_idx = rng.integers(1, 41, n_part)
    # the hierarchy folded into one code per level, in hierarchy order:
    # the codes index 5 / 25 / 1000-entry value pools, so no string is
    # formatted per row, and the brand code is the fact table's part key
    category = (mfgr_idx - 1) * 5 + (cat_idx - 1)
    brand = category * 40 + (brand_idx - 1)
    dimension("part", n_part, [
        make_column("p_partkey", serial_keys(n_part)),
        coded("p_mfgr", mfgr_idx - 1, [f"MFGR#{m}" for m in range(1, 6)]),
        coded("p_category", category, [f"MFGR#{m}{c}" for m in range(1, 6)
                                       for c in range(1, 6)]),
        coded("p_brand1", brand, [f"MFGR#{m}{c}{b:02d}" for m in range(1, 6)
                                  for c in range(1, 6) for b in range(1, 41)]),
        coded("p_color", rng.integers(0, len(COLORS), size=n_part), COLORS),
    ])

    n_lineorder = scaled_rows(LINEORDER_BASE, sf)
    rng = rng_for(seed, "lineorder")

    def measure(low, high):
        # rng.integers(low, high) per fact row, stored at the narrowest
        # integer width that holds [low, high)
        return drawn(n_lineorder, narrowest_int_type(low, high - 1).numpy_dtype,
                     lambda k: rng.integers(low, high, k))

    def gather(values, positions):
        # *positions* are valid indexes of *values*, so the gather needs
        # no bounds check and writes straight into a fresh buffer, a
        # slice at a time: an int32 index is never widened whole
        return gather_into(values, positions,
                           empty_buffer(len(positions), values.dtype))

    # Each fact column is written once, by the gather that permutes its
    # draw into load order straight into the buffer the table adopts;
    # a draw is permuted as soon as the order exists and dropped before
    # the next permutation, so at most one column is held twice at a
    # time.  The data depends on the order of the draws from the stream
    # (quantity, discount, extendedprice, date, customer, part,
    # supplier, supplycost, tax), not on when each is permuted.
    quantity = measure(1, 51)
    discount = measure(0, 11)
    extendedprice = measure(90_000, 10_000_000)
    date_pos = uniform_keys(rng, n_lineorder, n_dates)
    cust_pos = uniform_keys(rng, n_lineorder, n_customer)
    part_pos = uniform_keys(rng, n_lineorder, n_part)
    # Hierarchically clustered layout: fact rows land ordered by year,
    # then the part hierarchy (mfgr > category > brand), then orderdate
    # — the layout a yearly bulk load partitioned by product line
    # produces.  Date-band predicates (Q1.x) still touch a contiguous
    # band of blocks (year outermost), and within each year band the
    # part-dimension predicates of Q2.x/Q4.x cluster too, which is what
    # lets per-block code-set summaries skip for them; uniform per-row
    # value distributions are unchanged.  The order comes from the same
    # composite sort that `astore compact` uses to restore the declared
    # clustering spec after append/update churn; each fact row gathers
    # one part key (the brand code), and the keys fold into one packed
    # key sorted once: the order of year, then mfgr, category, brand,
    # then orderdate, with ties kept in generation order.
    order = composite_sort_order((gather(date_data["d_year"], date_pos),
                                  gather(brand, part_pos), date_pos))
    quantity = gather(quantity, order)
    discount = gather(discount, order)
    extendedprice = gather(extendedprice, order)
    date_pos = gather(date_pos, order)
    cust_pos = gather(cust_pos, order)
    part_pos = gather(part_pos, order)
    supp_pos = gather(uniform_keys(rng, n_lineorder, n_supplier), order)
    supplycost = gather(measure(10_000, 100_000), order)
    tax = gather(measure(0, 9), order)
    del order
    # computed in int64 one slice at a time and stored at the width of
    # the extended price, which bounds it
    revenue = filled(n_lineorder, extendedprice.dtype, lambda start, stop: (
        np.subtract(100, discount[start:stop], dtype=np.int64)
        * extendedprice[start:stop] // 100))

    def fixed(name, data):
        return FixedColumn.wrap(name, DataType(data.dtype.name), data)

    def foreign(name, parent, positions):
        if airify:
            return AIRColumn.wrap_air(name, parent, positions)
        if parent == "date":
            return fixed(name, gather(date_data["d_datekey"], positions))
        return fixed(name, np.add(positions, 1, out=positions))

    db.add_table(Table.wrap("lineorder", [
        fixed("lo_orderkey", serial_keys(
            n_lineorder, narrowest_int_type(1, n_lineorder).numpy_dtype)),
        foreign("lo_custkey", "customer", cust_pos),
        foreign("lo_partkey", "part", part_pos),
        foreign("lo_suppkey", "supplier", supp_pos),
        foreign("lo_orderdate", "date", date_pos),
        fixed("lo_quantity", quantity),
        fixed("lo_extendedprice", extendedprice),
        fixed("lo_discount", discount),
        fixed("lo_revenue", revenue),
        fixed("lo_supplycost", supplycost),
        fixed("lo_tax", tax),
    ], n_lineorder))

    db.add_reference("lineorder", "lo_custkey", "customer", "c_custkey")
    db.add_reference("lineorder", "lo_partkey", "part", "p_partkey")
    db.add_reference("lineorder", "lo_suppkey", "supplier", "s_suppkey")
    db.add_reference("lineorder", "lo_orderdate", "date", "d_datekey")
    db.clustering["lineorder"] = (
        "date.d_year", "part.p_mfgr", "part.p_category", "part.p_brand1",
        "lineorder.lo_orderdate")
    return db
