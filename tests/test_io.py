"""Tests for persistence (database images) and CSV import/export."""

import json
import mmap
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro import AStoreEngine
from repro.cli import main
from repro.core import (AIRColumn, ColumnArena, Database, DictColumn,
                        StringColumn, Table, attach_database)
from repro.errors import StorageError
from repro.io import dump_csv, load_csv, load_database, save_database
from repro.io.persist import _PREAMBLE

from .conftest import build_tiny_star


@contextmanager
def _file_sink(db, tmp_path):
    save_database(db, tmp_path / "db.npz")
    yield load_database(tmp_path / "db.npz")


@contextmanager
def _arena_sink(db, tmp_path):
    with ColumnArena.export(db) as arena, \
            attach_database(arena.manifest) as attached:
        yield attached.db


def roundtrips(db, tmp_path):
    """*db* back from both sinks of the one arena layout: a saved and
    loaded image, and a shared-memory export attached again."""
    for sink in (_file_sink, _arena_sink):
        with sink(db, tmp_path) as loaded:
            yield sink.__name__, loaded


def _mapping_of(array):
    while isinstance(array, np.ndarray):
        array = array.base
    return array


class TestPersistRoundtrip:
    """Every case runs over both sinks, so the file image and the shared
    arena can never drift apart."""

    def test_roundtrip_preserves_rows(self, tmp_path):
        db = build_tiny_star()
        for sink, loaded in roundtrips(db, tmp_path):
            assert set(loaded.tables) == set(db.tables), sink
            for name in db.tables:
                orig, back = db.table(name), loaded.table(name)
                assert back.num_rows == orig.num_rows, sink
                for col in orig.column_names:
                    assert list(back[col].values()) == list(orig[col].values())

    def test_roundtrip_preserves_layouts(self, tmp_path):
        for sink, loaded in roundtrips(build_tiny_star(), tmp_path):
            lo = loaded.table("lineorder")
            assert isinstance(lo["lo_custkey"], AIRColumn), sink
            assert lo["lo_custkey"].referenced_table == "customer"
            assert isinstance(loaded.table("customer")["c_region"], DictColumn)

    def test_roundtrip_preserves_references(self, tmp_path):
        for sink, loaded in roundtrips(build_tiny_star(), tmp_path):
            assert len(loaded.references) == 2, sink
            # and the engine runs on the loaded database without airify()
            total = AStoreEngine(loaded).query(
                "SELECT sum(lo_revenue) AS s FROM lineorder, customer "
                "WHERE lo_custkey = c_custkey AND c_region = 'ASIA'").scalar()
            assert total == 140, sink

    def test_roundtrip_preserves_deletes_and_free_slots(self, tmp_path):
        db = build_tiny_star()
        db.table("lineorder").delete([2, 5])
        for sink, loaded in roundtrips(db, tmp_path):
            lo = loaded.table("lineorder")
            assert lo.num_live == 6, sink
            assert np.flatnonzero(~lo.live_mask()).tolist() == [2, 5]
            assert lo._free_slots == [2, 5]
        # the freed slots survive: reuse happens on insert
        lo = load_database(tmp_path / "db.npz").table("lineorder")
        pos = lo.insert({name: [0] for name in lo.column_names})
        assert pos.tolist() == [2]

    def test_roundtrip_preserves_mvcc(self, tmp_path):
        db = build_tiny_star(mvcc=True)
        db.table("lineorder").delete([0], version=7)
        for sink, loaded in roundtrips(db, tmp_path):
            assert loaded.table("lineorder").live_mask(snapshot=5)[0], sink
            assert not loaded.table("lineorder").live_mask(snapshot=9)[0]

    def test_roundtrip_preserves_clustering(self, tmp_path, ssb_air):
        for sink, loaded in roundtrips(ssb_air, tmp_path):
            assert loaded.clustering == ssb_air.clustering, sink

    def test_roundtrip_ssb_query_equivalence(self, tmp_path, ssb_air):
        sql = ("SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date "
               "GROUP BY d_year ORDER BY d_year")
        expected = AStoreEngine(ssb_air).query(sql).rows()
        for sink, loaded in roundtrips(ssb_air, tmp_path):
            assert AStoreEngine(loaded).query(sql).rows() == expected, sink

    def test_string_heap_columns(self, tmp_path):
        db = Database("s")
        db.create_table("t", {"name": [f"n{i}" for i in range(50)]})
        assert isinstance(db.table("t")["name"], StringColumn)
        for sink, loaded in roundtrips(db, tmp_path):
            assert loaded.table("t")["name"].get(7) == "n7", sink

    def test_empty_tables_and_zero_fact_rows(self, tmp_path):
        db = build_tiny_star()
        fact = db.table("lineorder")
        fact.delete(range(fact.num_rows))
        db.compact("lineorder")
        db.add_table(Table("nothing"))
        for sink, loaded in roundtrips(db, tmp_path):
            assert loaded.table("lineorder").num_rows == 0, sink
            assert loaded.table("nothing").num_rows == 0
            assert AStoreEngine(loaded).query(
                "SELECT count(*) AS n FROM lineorder").scalar() == 0

    def test_version_check(self, tmp_path):
        path = tmp_path / "t.npz"
        save_database(build_tiny_star(), path)
        _edit_header(path, lambda header: header.update(version=99))
        with pytest.raises(StorageError, match="version 99"):
            load_database(path)


def _edit_header(path, edit):
    """Rewrite an image's JSON header in place, keeping its buffers."""
    raw = path.read_bytes()
    magic, length = _PREAMBLE.unpack_from(raw)
    header = json.loads(raw[_PREAMBLE.size:_PREAMBLE.size + length])
    edit(header)
    text = json.dumps(header).encode()
    old_base = -(-(_PREAMBLE.size + length) // 64) * 64
    new_base = -(-(_PREAMBLE.size + len(text)) // 64) * 64
    path.write_bytes((_PREAMBLE.pack(magic, len(text)) + text).ljust(
        new_base, b"\0") + raw[old_base:])


def _set_buffer(key, field, value):
    def edit(header):
        header["buffers"][key][field] = value
    return edit


class TestImageChecks:
    """A file that is not a whole image raises StorageError: never a
    crash, never garbage."""

    @pytest.fixture
    def image(self, tmp_path):
        path = tmp_path / "tiny.npz"
        save_database(build_tiny_star(), path)
        return path

    def test_npz_archive_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez_compressed(path, a=np.arange(10))
        with pytest.raises(StorageError, match="regenerate"):
            load_database(path)

    @pytest.mark.parametrize("content", [b"", b"AST", b"not an image at all"])
    def test_bad_magic(self, tmp_path, content):
        path = tmp_path / "junk.npz"
        path.write_bytes(content)
        with pytest.raises(StorageError, match="not a database image"):
            load_database(path)

    @pytest.mark.parametrize("keep", [12, 100, 0.5, -1])
    def test_truncated_file(self, image, keep):
        raw = image.read_bytes()
        image.write_bytes(raw[:int(len(raw) * keep) if isinstance(keep, float)
                              else keep])
        with pytest.raises(StorageError):
            load_database(image)

    @pytest.mark.parametrize("edit", [
        _set_buffer("lineorder//lo_revenue", 0, 1 << 40),
        _set_buffer("lineorder//lo_revenue", 0, -64),
        _set_buffer("lineorder//lo_revenue", 1, [1 << 20]),
        _set_buffer("lineorder//lo_revenue", 1, [-1]),
        _set_buffer("lineorder//lo_revenue", 2, "|O"),
        _set_buffer("lineorder//lo_revenue", 2, "<f8"),
        _set_buffer("lineorder//lo_revenue", 1, [4]),
        _set_buffer("lineorder//$deleted", 2, "<i8"),
        lambda header: header.pop("tables"),
        lambda header: header["buffers"].pop("lineorder//lo_revenue"),
        lambda header: header["tables"]["lineorder"]["columns"][0].update(
            layout="mystery"),
        lambda header: header["references"].append(["nope", "x", "y", "z"]),
        lambda header: header.update(buffers=[]),
    ], ids=["offset-past-eof", "negative-offset", "shape-past-eof",
            "negative-shape", "object-dtype", "dtype-mismatch",
            "short-buffer", "deleted-dtype", "no-tables", "missing-buffer",
            "unknown-layout", "unknown-reference", "buffers-not-a-map"])
    def test_malformed_header(self, image, edit):
        _edit_header(image, edit)
        with pytest.raises(StorageError):
            load_database(image)

    def test_trailing_bytes_rejected(self, image):
        image.write_bytes(image.read_bytes() + bytes(64))
        with pytest.raises(StorageError, match="buffer map needs"):
            load_database(image)

    def test_header_not_json(self, image):
        raw = bytearray(image.read_bytes())
        raw[_PREAMBLE.size:_PREAMBLE.size + 4] = b"\xff{{{"[:4]
        image.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="malformed"):
            load_database(image)


class TestMappedImage:
    """A loaded image is a copy-on-write mapping: zero-copy to read,
    private to write."""

    def test_fact_column_shares_the_file_mapping(self, tmp_path):
        save_database(build_tiny_star(), tmp_path / "t.npz")
        values = load_database(tmp_path / "t.npz").table(
            "lineorder")["lo_revenue"].values()
        mapping = _mapping_of(values)
        assert isinstance(mapping, mmap.mmap)
        assert np.shares_memory(values, np.frombuffer(mapping, np.uint8))
        assert type(values) is np.ndarray and values.flags.writeable

    def test_writes_never_reach_the_file(self, tmp_path):
        path = tmp_path / "t.npz"
        save_database(build_tiny_star(), path)
        before = path.read_bytes()
        db = load_database(path)
        lo = db.table("lineorder")
        lo.update([0], {"lo_revenue": [999]})
        lo.delete([1, 3])
        lo.insert({name: [lo[name].get(4)] for name in lo.column_names})
        db.compact("lineorder")
        assert lo.num_rows == 7 and 999 in lo["lo_revenue"].values()
        assert path.read_bytes() == before
        assert 999 not in load_database(path).table(
            "lineorder")["lo_revenue"].values()

    def test_load_reads_no_row_data(self, tmp_path, ssb_air):
        # an MVCC table too: its version vectors are mapped, not
        # allocated and then replaced
        lineorder = ssb_air.table("lineorder")
        mvcc = Database("mvcc")
        mvcc.create_table("lineorder", {
            name: lineorder[name].values()
            for name in ("lo_quantity", "lo_discount", "lo_revenue")},
            mvcc=True)
        for source in (ssb_air, mvcc):
            path = tmp_path / f"{source.name}.img"
            save_database(source, path)
            tracemalloc.start()
            try:
                db = load_database(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            fact_bytes = db.table("lineorder").nbytes
            assert fact_bytes > 1_000_000
            assert peak < fact_bytes / 10, (source.name, peak, fact_bytes)

    def test_in_place_compact_keeps_the_earlier_mapping(self, tmp_path):
        path = tmp_path / "tiny.npz"
        db = build_tiny_star()
        db.table("lineorder").delete([0, 6])
        save_database(db, path)
        earlier = load_database(path)
        revenue = earlier.table("lineorder")["lo_revenue"].values().copy()
        assert main(["compact", str(path)]) == 0
        assert np.array_equal(
            earlier.table("lineorder")["lo_revenue"].values(), revenue)
        assert earlier.table("lineorder").num_rows == 8
        assert load_database(path).table("lineorder").num_rows == 6
        assert main(["validate", str(path)]) == 0
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


class TestCSV:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "dim.csv"
        path.write_text("k|name|price\n1|alpha|10\n2|beta|2.5\n")
        db = Database("csv")
        table = load_csv(db, "dim", path)
        assert table.num_rows == 2
        assert table["k"].values().tolist() == [1, 2]
        assert table["price"].values().tolist() == [10.0, 2.5]
        assert table["name"].get(1) == "beta"

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "raw.tbl"
        path.write_text("1|x|\n2|y|\n")  # dbgen trailing delimiter
        db = Database("csv")
        table = load_csv(db, "raw", path, columns=["k", "v"],
                         has_header=False)
        assert table.num_rows == 2
        assert table["v"].values().tolist() == ["x", "y"]

    def test_load_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(StorageError):
            load_csv(Database("x"), "t", path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a|b\n1|2\n3\n")
        with pytest.raises(StorageError):
            load_csv(Database("x"), "t", path)

    def test_dump_table_skips_deleted(self, tmp_path):
        db = build_tiny_star()
        db.table("customer").delete([1])
        n = dump_csv(db.table("customer"), tmp_path / "c.csv")
        assert n == 3
        text = (tmp_path / "c.csv").read_text()
        assert "JAPAN" not in text and "CHINA" in text

    def test_dump_query_result(self, tmp_path, tiny_star):
        result = AStoreEngine(tiny_star).query(
            "SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date "
            "GROUP BY d_year ORDER BY d_year")
        n = dump_csv(result, tmp_path / "out.csv")
        assert n == 2
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert lines[0] == "d_year|s"

    def test_csv_roundtrip_through_engine(self, tmp_path):
        db = build_tiny_star()
        dump_csv(db.table("lineorder"), tmp_path / "lo.csv")
        db2 = Database("again")
        load_csv(db2, "lineorder", tmp_path / "lo.csv")
        total = AStoreEngine(db2).query(
            "SELECT sum(lo_revenue) AS s FROM lineorder").scalar()
        assert total == 360
