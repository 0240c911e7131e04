"""Narrow integer columns: storage width is invisible to SQL.

The generator stores ``lineorder``'s measures at the narrowest width
their domains need (``int8``/``int32``).  What must not show through:

* integer arithmetic evaluates in ``int64``, so a product of narrow
  columns does not wrap and an ``int64`` literal does not raise;
* a literal the column's width cannot hold compares, BETWEENs and INs
  exactly as it would against ``int64``, pruning on or off;
* a write that does not fit widens the column (plain, adopted from a
  process-shard image, or through ``serve``) instead of wrapping, and
  the zone summaries rebuild at the new width;
* the narrow database answers exactly as the same data stored at
  ``int64`` does — serial, 2 process shards, pruning on and off, and
  after a save/load round trip (an ``int64`` image still loads);
* the AIR foreign keys are ``int32`` through images, process shards
  and compaction, and an out-of-range position still raises.
"""

import asyncio
import io
import json

import numpy as np
import pytest

from repro.core import (AIRColumn, ColumnArena, Database, DataType,
                        FixedColumn, Table, attach_database)
from repro.core.arena import rebuild_database, write_image
from repro.core.statistics import zone_maps_for
from repro.core.types import narrowest_int_type
from repro.datagen import generate_ssb
from repro.engine import AStoreEngine, AsyncEngine, EngineOptions
from repro.engine.cache import query_cache_for
from repro.engine.serve import serve_tcp
from repro.errors import SchemaError, StorageError
from repro.io import load_database, save_database
from repro.workloads import SSB_QUERIES

BIG = 5_000_000_000

#: queries whose literals or intermediate values leave the columns' widths
WIDE_QUERIES = {
    "sixth_power": "SELECT max(lo_quantity*lo_quantity*lo_quantity"
                   "*lo_quantity*lo_quantity*lo_quantity) AS m FROM lineorder",
    "plus_big": "SELECT d_year, sum(lo_revenue + 5000000000) AS s "
                "FROM lineorder, date GROUP BY d_year ORDER BY d_year",
    "product": "SELECT sum(lo_extendedprice * lo_quantity * lo_tax) AS s, "
               "min(lo_supplycost - lo_extendedprice) AS m FROM lineorder",
    "eq_out": "SELECT count(*) AS n FROM lineorder WHERE lo_quantity = 300",
    "lt_out": "SELECT count(*) AS n FROM lineorder "
              "WHERE lo_quantity < 5000000000 AND lo_discount > -129",
    "between_out": "SELECT count(*) AS n FROM lineorder "
                   "WHERE lo_discount BETWEEN -1000 AND 3",
    "in_out": "SELECT count(*) AS n FROM lineorder "
              "WHERE lo_quantity IN (5, 5000000000)",
    "not_in_out": "SELECT count(*) AS n FROM lineorder "
                  "WHERE lo_extendedprice NOT IN (2147483648, 5000000000)",
}


@pytest.fixture(scope="module")
def narrow():
    return generate_ssb(sf=0.01, seed=3)


def widened(db):
    """*db* with every non-AIR integer ``lineorder`` column re-wrapped as
    int64 (the layout before the generator narrowed them)."""
    fact = db.table("lineorder")
    for name in fact.column_names:
        column = fact[name]
        if type(column) is FixedColumn:
            fact.replace_column(name, FixedColumn.wrap(
                name, DataType.INT64, column.values().astype(np.int64)))
    return db


def answers(db, queries, **options):
    with AStoreEngine(db, EngineOptions(use_cache=False, **options)) as engine:
        return {name: engine.query(sql).rows() for name, sql in queries.items()}


class TestWidths:
    def test_narrowest_int_type(self):
        assert narrowest_int_type(0, 127) is DataType.INT8
        assert narrowest_int_type(-129, 0) is DataType.INT16
        assert narrowest_int_type(1, 6_000_000) is DataType.INT32
        assert narrowest_int_type(0, 2 ** 31) is DataType.INT64
        with pytest.raises(SchemaError):
            narrowest_int_type(0, 2 ** 63)


class TestArithmetic:
    def test_products_and_big_literals_do_not_wrap(self, narrow):
        fact = narrow.table("lineorder")
        q = fact["lo_quantity"].values().tolist()
        price = fact["lo_extendedprice"].values().tolist()
        tax = fact["lo_tax"].values().tolist()
        cost = fact["lo_supplycost"].values().tolist()
        got = answers(narrow, {
            "pow": WIDE_QUERIES["sixth_power"],
            "plus": "SELECT sum(lo_quantity + 5000000000) AS s, "
                    "min(lo_quantity - 5000000000) AS m FROM lineorder",
            "product": WIDE_QUERIES["product"],
            "mod_div": "SELECT sum(lo_quantity % 7) AS s, "
                       "max(lo_quantity / 4) AS d FROM lineorder"})
        assert got["pow"] == [(max(v ** 6 for v in q),)]
        assert got["plus"] == [(sum(v + BIG for v in q), min(q) - BIG)]
        assert got["product"] == [(
            sum(p * v * t for p, v, t in zip(price, q, tax)),
            min(c - p for c, p in zip(cost, price)))]
        assert got["mod_div"] == [(sum(v % 7 for v in q), max(q) / 4)]


class TestLiterals:
    #: per column, an in-range literal first, then ones at and past the
    #: edges of its storage width
    LITERALS = {"lo_quantity": (25, 127, 128, 300, -129, BIG, -BIG),
                "lo_extendedprice": (2_000_000, 2 ** 31, -2 ** 31 - 1, BIG)}

    def cases(self, column, values):
        lo, hi, inside = min(values), max(values), values[0]
        yield from (
            (f"{column} = {v}", lambda x, v=v: x == v) for v in values)
        yield from (
            (f"{column} < {v}", lambda x, v=v: x < v) for v in values)
        yield (f"{column} BETWEEN {lo} AND {inside}",
               lambda x: lo <= x <= inside)
        yield (f"{column} BETWEEN {inside} AND {hi}",
               lambda x: inside <= x <= hi)
        pool = ", ".join(map(str, values))
        yield (f"{column} IN ({pool})", lambda x: x in values)
        yield (f"{column} NOT IN ({pool})", lambda x: x not in values)
        # a float literal matches the integer it equals, and only that
        yield (f"{column} IN ({inside}.0, 0.5)", lambda x: x == inside)

    @pytest.mark.parametrize("pruning", [True, False])
    def test_predicates_match_python_ints(self, narrow, pruning):
        fact = narrow.table("lineorder")
        queries, expected = {}, {}
        for column, values in self.LITERALS.items():
            data = fact[column].values().tolist()
            for where, holds in self.cases(column, values):
                queries[where] = (f"SELECT count(*) AS n, sum({column}) AS s "
                                  f"FROM lineorder WHERE {where}")
                chosen = [x for x in data if holds(x)]
                expected[where] = [(len(chosen), sum(chosen))]
        assert answers(narrow, queries, use_pruning=pruning) == expected


class TestWidenOnWrite:
    def test_plain_column_widens_instead_of_wrapping(self):
        column = FixedColumn("v", DataType.INT8, data=[1, 2, 3])
        column.append([100])
        assert column.dtype is DataType.INT8
        column.append([300])
        assert column.dtype is DataType.INT16
        column.put(np.array([0]), np.array([BIG]))
        assert column.dtype is DataType.INT64
        assert column.values().dtype == np.int64
        assert column.values().tolist() == [BIG, 2, 3, 100, 300]
        int32 = FixedColumn("w", DataType.INT32, data=[7])
        int32.put(np.array([0]), BIG)  # wrapped to 705 032 704 before
        assert int32.get(0) == BIG and int32.dtype is DataType.INT64

    def test_widening_copies_a_read_only_image(self):
        image = np.array([1, 2, 3], dtype=np.int8)
        image.flags.writeable = False
        column = FixedColumn.wrap("v", DataType.INT8, image)
        column.put(np.array([1]), [-1000])
        assert column.values().tolist() == [1, -1000, 3]
        assert image.tolist() == [1, 2, 3]
        assert column.dtype is DataType.INT16

    def test_fitting_writes_keep_the_width(self):
        column = FixedColumn("v", DataType.INT8, capacity=64)
        column.append(np.array([5, -128, 127], dtype=np.int64))
        buffer = column._data
        column.put(np.array([0, 1]), np.array([-5, 6], dtype=np.int64))
        assert column.dtype is DataType.INT8 and column._data is buffer
        assert column.values().tolist() == [-5, 6, 127]

    def test_dates_refuse_what_they_cannot_hold(self):
        column = FixedColumn("d", DataType.DATE, data=[1, 2])
        with pytest.raises(StorageError):
            column.append(np.array([BIG]))
        assert column.values().tolist() == [1, 2]

    def test_image_written_across_a_widening_write_rebuilds(self, monkeypatch):
        # the layout reads a column's buffer, then a write widens the
        # column before the layout reads its type: the image must record
        # the type of the buffer it wrote
        table = Table.wrap("t", [FixedColumn.wrap(
            "v", DataType.INT8, np.arange(4, dtype=np.int8))], 4)
        db = Database("race")
        db.add_table(table)
        values = FixedColumn.values

        def racing(column):
            monkeypatch.setattr(FixedColumn, "values", values)
            read = values(column)
            table.update([0], {"v": [BIG]})
            return read

        monkeypatch.setattr(FixedColumn, "values", racing)
        image = io.BytesIO()
        manifest = write_image(image, db)
        rebuilt, _ = rebuild_database(manifest, image.getbuffer(), manifest.base)
        assert rebuilt.table("t")["v"].values().tolist() == [0, 1, 2, 3]
        assert table["v"].values().tolist() == [BIG, 1, 2, 3]

    def test_adopted_image_widens_and_summaries_follow(self):
        db = generate_ssb(sf=0.002, seed=5)
        fact = db.table("lineorder")
        sql = ("SELECT count(*) AS n, sum(lo_quantity) AS s FROM lineorder "
               "WHERE lo_quantity > 40")
        big_sql = ("SELECT count(*) AS n FROM lineorder "
                   f"WHERE lo_quantity = {BIG}")
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2)) as engine:
            assert engine.query(big_sql).rows() == [(0,)]
            # the process query adopted the exported image: a view
            assert not fact["lo_quantity"].values().flags.writeable
            zones = zone_maps_for(db, query_cache_for(db))
            assert zones.column("lineorder", "lo_quantity").mins.dtype \
                == np.int8
            fact.update([0], {"lo_quantity": [BIG]})
            assert fact["lo_quantity"].dtype is DataType.INT64
            assert fact["lo_quantity"].get(0) == BIG
            zones = zone_maps_for(db, query_cache_for(db))
            assert zones.column("lineorder", "lo_quantity").mins.dtype \
                == np.int64
            assert engine.query(big_sql).rows() == [(1,)]
            after = engine.query(sql).rows()
        with AStoreEngine(db, EngineOptions(use_cache=False)) as serial:
            assert serial.query(sql).rows() == after
            assert serial.query(big_sql).rows() == [(1,)]

    def test_serve_update_widens(self):
        db = generate_ssb(sf=0.002, seed=5)
        sql = "SELECT max(lo_tax) AS m FROM lineorder"

        async def main():
            engine = AsyncEngine(db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(obj):
                writer.write(json.dumps(obj).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            assert (await rpc({"sql": sql, "id": 1}))["rows"] == [[8]]
            response = await rpc({"update": {
                "table": "lineorder", "positions": [3],
                "values": {"lo_tax": [BIG]}}, "id": 2})
            assert response["ok"]
            reply = await rpc({"sql": sql, "id": 3})
            writer.close()
            await server.stop()
            return reply["rows"]

        assert asyncio.run(main()) == [[BIG]]
        assert db.table("lineorder")["lo_tax"].dtype is DataType.INT64


class TestNarrowAgainstWide:
    QUERIES = {**SSB_QUERIES, **WIDE_QUERIES}

    def test_same_answers_everywhere(self, tmp_path):
        # databases of its own: the process engines leave each an image,
        # which goes with the database at the end of the test
        narrow = generate_ssb(sf=0.01, seed=3)
        wide = widened(generate_ssb(sf=0.01, seed=3))
        assert wide.table("lineorder")["lo_tax"].dtype is DataType.INT64
        expected = answers(wide, self.QUERIES, use_pruning=False)
        assert answers(narrow, self.QUERIES, use_pruning=False) == expected
        for name, db in (("narrow", narrow), ("wide", wide)):
            assert answers(db, self.QUERIES) == expected, name
            assert answers(db, self.QUERIES, parallel_backend="process",
                           workers=2) == expected, name
            save_database(db, tmp_path / f"{name}.img")
            loaded = load_database(tmp_path / f"{name}.img")
            assert [loaded.table("lineorder")[c].dtype
                    for c in ("lo_quantity", "lo_revenue")] \
                == [db.table("lineorder")[c].dtype
                    for c in ("lo_quantity", "lo_revenue")]
            for pruning in (True, False):
                assert answers(loaded, self.QUERIES,
                               use_pruning=pruning) == expected, name


# -- AIR references ---------------------------------------------------------

AIR_COLUMNS = ("lo_custkey", "lo_partkey", "lo_suppkey", "lo_orderdate")

#: one query per AIR reference, each probing and grouping through it
AIR_QUERIES = {name: SSB_QUERIES[name]
               for name in ("Q1.1", "Q2.1", "Q3.1", "Q4.1")}


def air_widths(db):
    fact = db.table("lineorder")
    return {name: (type(fact[name]).__name__, fact[name].dtype,
                   fact[name].values().dtype)
            for name in AIR_COLUMNS}


INT32_AIR = {name: ("AIRColumn", DataType.INT32, np.dtype(np.int32))
             for name in AIR_COLUMNS}


@pytest.fixture(scope="module")
def referenced():
    """A small SSB database and its answers to :data:`AIR_QUERIES`."""
    db = generate_ssb(sf=0.002, seed=9)
    return db, answers(db, AIR_QUERIES)


class TestReferenceWidths:
    """AIR columns are stored at int32 and stay so through every writer
    and every reader of an image (~2.5 s, most of it the process pool)."""

    def test_image_round_trip_keeps_int32(self, referenced, tmp_path):
        db, expected = referenced
        assert air_widths(db) == INT32_AIR
        save_database(db, tmp_path / "air.img")
        loaded = load_database(tmp_path / "air.img")
        assert air_widths(loaded) == INT32_AIR
        assert answers(loaded, AIR_QUERIES) == expected

    def test_image_without_a_reference_type_loads_int64(self, referenced):
        # an image written before AIR columns were narrowed records no
        # type in its "air" layout entries and stores int64 positions
        db, expected = referenced
        wide = Database(db.name)
        for name, table in db.tables.items():
            columns = [AIRColumn.wrap_air(c, table[c].referenced_table,
                                          table[c].values().astype(np.int64))
                       if c in AIR_COLUMNS else table[c]
                       for c in table.column_names]
            wide.add_table(Table.wrap(name, columns, table.num_rows))
        for ref in db.references:
            wide.add_reference(ref.child_table, ref.child_column,
                               ref.parent_table, ref.parent_key)
        image = io.BytesIO()
        manifest = write_image(image, wide)
        for entry in manifest.tables["lineorder"]["columns"]:
            if entry["layout"] == "air":
                assert entry.pop("dtype") == "int64"
        old, _ = rebuild_database(manifest, image.getbuffer(), manifest.base)
        assert {name: width[1] for name, width in air_widths(old).items()} \
            == dict.fromkeys(AIR_COLUMNS, DataType.INT64)
        assert answers(old, AIR_QUERIES) == expected

    def test_arena_and_process_shards_keep_int32(self, referenced):
        db, expected = referenced
        with ColumnArena.export(db) as arena:
            with attach_database(arena.manifest) as attached:
                assert air_widths(attached.db) == INT32_AIR
                assert answers(attached.db, AIR_QUERIES) == expected
        assert answers(db, AIR_QUERIES, parallel_backend="process",
                       workers=2) == expected

    def test_compaction_keeps_int32(self):
        db = generate_ssb(sf=0.002, seed=9)
        expected = answers(db, AIR_QUERIES)
        fact = db.table("lineorder")
        fact.delete(np.arange(0, fact.num_rows, 5))
        expected_after_delete = answers(db, AIR_QUERIES)
        db.compact("lineorder")
        # a dimension's compaction rewrites the fact's references to it
        db.compact("date")
        db.compact("customer")
        assert air_widths(db) == INT32_AIR
        assert answers(db, AIR_QUERIES) == expected_after_delete
        assert expected_after_delete != expected

    @pytest.mark.parametrize("past, width", [(5, DataType.INT32),
                                             (2 ** 31, DataType.INT64)],
                             ids=["in-int32", "past-int32"])
    def test_out_of_range_position_raises_at_query_time(self, past, width):
        # Table.insert does not check AIR positions; the gather at query
        # time must raise rather than answer with a wrong row, and a
        # position past int32 widens the column instead of wrapping
        db = generate_ssb(sf=0.002, seed=9)
        fact = db.table("lineorder")
        bad = db.table("customer").num_rows + past
        row = fact.gather(np.array([0]))
        row["lo_custkey"] = np.array([bad])
        fact.insert(row)
        assert fact["lo_custkey"].dtype is width
        assert fact["lo_custkey"].get(fact.num_rows - 1) == bad
        queries = {  # a probe and a group gather through lo_custkey
            "probe": "SELECT count(*) AS n FROM lineorder, customer "
                     "WHERE c_region = 'ASIA'",
            "group": "SELECT c_nation, sum(lo_revenue) AS r "
                     "FROM lineorder, customer GROUP BY c_nation"}
        for name, sql in queries.items():
            for pruning in (True, False):
                with pytest.raises(IndexError):
                    answers(db, {name: sql}, use_pruning=pruning)
