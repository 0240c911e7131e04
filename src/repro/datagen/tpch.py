"""TPC-H subset generator (snowflake schema).

Generates the tables the paper's snowflake experiments touch:
``lineitem → orders → customer → nation → region`` plus ``part`` and
``supplier``.  This is the schema of the paper's Fig. 3 (its Q3 example
uses an adapted ``o_price`` attribute on orders, which we generate too).
SF=1 sizes follow TPC-H (6M lineitem, 1.5M orders, 150k customer, ...).
"""

from __future__ import annotations

import numpy as np

from ..core import Database
from ..core.column import AIRColumn, FixedColumn
from ..core.table import Table
from ..core.types import DataType
from .distributions import drawn, rng_for, scaled_rows, serial_keys, uniform_keys
from .ssb import NATION_LIST, REGIONS, REGION_OF_NATION

LINEITEM_BASE = 6_000_000
ORDERS_BASE = 1_500_000
CUSTOMER_BASE = 150_000
PART_BASE = 200_000
SUPPLIER_BASE = 10_000


def generate_tpch(sf: float = 0.01, seed: int = 42, airify: bool = True) -> Database:
    """Generate the TPC-H subset at scale factor *sf*.

    The join graph is the snowflake of the paper's Fig. 3:
    ``lineitem`` is the root; ``orders`` chains to ``customer``, which
    chains to ``nation`` and ``region``; ``part`` and ``supplier`` hang
    directly off ``lineitem``.

    Each column is drawn straight into the storage buffer its table
    adopts through :meth:`Table.wrap` (:func:`drawn`), and every foreign
    key is drawn as a parent array position: with ``airify=True`` it is
    stored as an AIR column as drawn, with ``airify=False`` it is
    shifted in place onto the parent's key values.  Generation holds
    little more than its data.
    """
    db = Database(f"tpch_sf{sf}")

    db.create_table("region", {
        "r_regionkey": np.arange(len(REGIONS), dtype=np.int64),
        "r_name": list(REGIONS),
    })

    region_index = {r: i for i, r in enumerate(REGIONS)}
    db.create_table("nation", {
        "n_nationkey": np.arange(len(NATION_LIST), dtype=np.int64),
        "n_name": list(NATION_LIST),
        "n_regionkey": np.array(
            [region_index[REGION_OF_NATION[n]] for n in NATION_LIST],
            dtype=np.int64,
        ),
    })

    def fixed(name, data):
        return FixedColumn.wrap(name, DataType(data.dtype.name), data)

    def serial(name, n):
        return FixedColumn.wrap(name, DataType.INT64, serial_keys(n))

    def foreign(name, parent, positions, first_key=1):
        if airify:
            return AIRColumn.wrap_air(name, parent, positions)
        return fixed(name, np.add(positions, first_key, out=positions))

    def add(name, n, columns):
        db.add_table(Table.wrap(name, columns, n))

    n_customer = scaled_rows(CUSTOMER_BASE, sf)
    rng = rng_for(seed, "tpch.customer")
    add("customer", n_customer, [
        serial("c_custkey", n_customer),
        foreign("c_nationkey", "nation",
                uniform_keys(rng, n_customer, len(NATION_LIST)), 0),
        fixed("c_acctbal", _cents(drawn(
            n_customer, np.float64,
            lambda k: rng.uniform(-999.99, 9999.99, k)))),
    ])

    n_orders = scaled_rows(ORDERS_BASE, sf)
    rng = rng_for(seed, "tpch.orders")
    add("orders", n_orders, [
        serial("o_orderkey", n_orders),
        foreign("o_custkey", "customer",
                uniform_keys(rng, n_orders, n_customer)),
        # the paper's adapted Fig. 3 query filters on o_price
        fixed("o_price", drawn(n_orders, np.int64,
                               lambda k: rng.integers(1, 1001, k))),
        fixed("o_orderdate", _year_dates(drawn(
            n_orders, np.int64, lambda k: rng.integers(0, 7, k)))),
    ])

    n_part = scaled_rows(PART_BASE, sf)
    rng = rng_for(seed, "tpch.part")
    add("part", n_part, [
        serial("p_partkey", n_part),
        fixed("p_retailprice", _cents(drawn(
            n_part, np.float64, lambda k: rng.uniform(900.0, 2000.0, k)))),
    ])

    n_supplier = scaled_rows(SUPPLIER_BASE, sf)
    rng = rng_for(seed, "tpch.supplier")
    add("supplier", n_supplier, [
        serial("s_suppkey", n_supplier),
        # no declared reference: it stays key-valued in both loads
        fixed("s_nationkey", uniform_keys(rng, n_supplier, len(NATION_LIST))),
    ])

    n_lineitem = scaled_rows(LINEITEM_BASE, sf)
    rng = rng_for(seed, "tpch.lineitem")
    add("lineitem", n_lineitem, [
        foreign("l_orderkey", "orders",
                uniform_keys(rng, n_lineitem, n_orders)),
        foreign("l_partkey", "part", uniform_keys(rng, n_lineitem, n_part)),
        foreign("l_suppkey", "supplier",
                uniform_keys(rng, n_lineitem, n_supplier)),
        fixed("l_quantity", drawn(n_lineitem, np.int32,
                                  lambda k: rng.integers(1, 51, k))),
        fixed("l_extendedprice", _cents(drawn(
            n_lineitem, np.float64,
            lambda k: rng.uniform(900.0, 100_000.0, k)))),
        fixed("l_discount", drawn(
            n_lineitem, np.float64,
            lambda k: np.divide(rng.integers(0, 11, k), 100.0))),
    ])

    db.add_reference("nation", "n_regionkey", "region", "r_regionkey")
    db.add_reference("customer", "c_nationkey", "nation", "n_nationkey")
    db.add_reference("orders", "o_custkey", "customer", "c_custkey")
    db.add_reference("lineitem", "l_orderkey", "orders", "o_orderkey")
    db.add_reference("lineitem", "l_partkey", "part", "p_partkey")
    db.add_reference("lineitem", "l_suppkey", "supplier", "s_suppkey")
    if airify:
        db.airify()  # what is left: the 25-row nation -> region edge
    return db


def _cents(values: np.ndarray) -> np.ndarray:
    """*values* rounded to two decimals, in place."""
    return np.round(values, 2, out=values)


def _year_dates(years: np.ndarray) -> np.ndarray:
    """January 1st of 1992 + *years* as ``yyyymmdd``, in place."""
    years *= 10000
    years += 19920101
    return years
