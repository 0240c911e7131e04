"""Unit tests for the array-family Table: tail inserts (no slot reuse),
lazy deletes, in-place updates, MVCC visibility, consolidation, the
per-stamp visibility memo and written-byte accounting."""

import numpy as np
import pytest

from repro.core import DataType, FixedColumn, Table
from repro.datagen import generate_ssb
from repro.errors import SchemaError, StorageError


def make_table(**kwargs):
    return Table.from_arrays(
        "t",
        {"k": [10, 20, 30, 40], "v": [1.0, 2.0, 3.0, 4.0],
         "tag": ["a", "b", "a", "b"]},
        **kwargs,
    )


class TestConstruction:
    def test_shape(self):
        t = make_table()
        assert t.num_rows == 4
        assert t.num_live == 4
        assert set(t.column_names) == {"k", "v", "tag"}

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_arrays("t", {"a": [1, 2], "b": [1]})

    def test_getitem_unknown_column(self):
        with pytest.raises(SchemaError):
            make_table()["nope"]

    def test_row_access(self):
        t = make_table()
        assert t.row(1) == {"k": 20, "v": 2.0, "tag": "b"}

    def test_gather(self):
        t = make_table()
        out = t.gather(np.array([3, 0]), columns=["k"])
        assert out["k"].tolist() == [40, 10]


class TestInsert:
    def test_append(self):
        t = make_table()
        pos = t.insert({"k": [50], "v": [5.0], "tag": ["c"]})
        assert pos.tolist() == [4]
        assert t.num_rows == 5
        assert t.row(4) == {"k": 50, "v": 5.0, "tag": "c"}

    def test_missing_column_rejected(self):
        t = make_table()
        with pytest.raises(SchemaError):
            t.insert({"k": [1]})

    def test_uneven_lengths_rejected(self):
        t = make_table()
        with pytest.raises(SchemaError):
            t.insert({"k": [1, 2], "v": [1.0], "tag": ["a", "b"]})

    def test_empty_insert(self):
        t = make_table()
        assert len(t.insert({"k": [], "v": [], "tag": []})) == 0

    def test_slot_reuse(self):
        t = make_table()
        t.delete([1])
        pos = t.insert({"k": [99], "v": [9.9], "tag": ["z"]})
        # no slot is reused: the row lands at the tail, the slot stays dead
        assert pos.tolist() == [4]
        assert t.num_rows == 5
        assert t.row(4) == {"k": 99, "v": 9.9, "tag": "z"}
        assert t.row(1) == {"k": 20, "v": 2.0, "tag": "b"}
        assert t.live_mask().tolist() == [True, False, True, True, True]

    def test_reuse_then_append(self):
        t = make_table()
        t.delete([0])
        pos = t.insert({"k": [7, 8], "v": [0.7, 0.8], "tag": ["x", "y"]})
        assert pos.tolist() == [4, 5]
        assert t.num_live == 5
        # compaction drops exactly the deleted row, keeping the order
        assert t.consolidate().tolist() == [-1, 0, 1, 2, 3, 4]
        assert t["k"].values().tolist() == [20, 30, 40, 7, 8]


class TestDelete:
    def test_lazy_delete(self):
        t = make_table()
        assert t.delete([0, 2]) == 2
        assert t.num_rows == 4  # physical rows unchanged (lazy)
        assert t.num_live == 2
        assert t.live_mask().tolist() == [False, True, False, True]

    def test_deletion_vector(self):
        t = make_table()
        t.delete([3])
        assert t.deletion_vector().to_indices().tolist() == [3]

    def test_idempotent(self):
        t = make_table()
        assert t.delete([1]) == 1
        assert t.delete([1]) == 0
        assert t.num_live == 3

    def test_out_of_range(self):
        with pytest.raises(StorageError):
            make_table().delete([9])


class TestUpdate:
    def test_in_place(self):
        t = make_table()
        t.update([2], {"v": [33.0]})
        assert t.row(2)["v"] == 33.0
        assert t.num_rows == 4

    def test_update_deleted_rejected(self):
        t = make_table()
        t.delete([2])
        with pytest.raises(StorageError):
            t.update([2], {"v": [0.0]})

    def test_varchar_in_place(self):
        t = Table.from_arrays("s", {"name": [f"n{i}" for i in range(100)]})
        t.update([5], {"name": ["replacement"]})
        assert t.row(5)["name"] == "replacement"


class TestConsolidate:
    def test_compacts_and_maps(self):
        t = make_table()
        t.delete([1])
        mapping = t.consolidate()
        assert mapping.tolist() == [0, -1, 1, 2]
        assert t.num_rows == 3
        assert t.num_live == 3
        assert t["k"].values().tolist() == [10, 30, 40]

    def test_clears_free_slots(self):
        t = make_table()
        t.delete([0])
        t.consolidate()
        pos = t.insert({"k": [5], "v": [0.5], "tag": ["q"]})
        assert pos.tolist() == [3]  # appended after the compacted rows

    def test_noop_when_no_deletes(self):
        t = make_table()
        mapping = t.consolidate()
        assert mapping.tolist() == [0, 1, 2, 3]


class TestMVCC:
    def test_snapshot_visibility(self):
        t = make_table(mvcc=True)
        t.insert({"k": [50], "v": [5.0], "tag": ["c"]}, version=10)
        t.delete([0], version=20)

        # snapshot before everything: only the 4 original rows
        assert t.live_mask(snapshot=5).tolist() == [True] * 4 + [False]
        # snapshot after insert, before delete
        assert t.live_mask(snapshot=15).tolist() == [True] * 5
        # snapshot after delete
        assert t.live_mask(snapshot=25).tolist() == [False] + [True] * 4

    def test_snapshot_requires_mvcc(self):
        with pytest.raises(StorageError):
            make_table().live_mask(snapshot=1)

    def test_appended_row_gets_new_versions(self):
        t = make_table(mvcc=True)
        t.delete([1], version=10)
        t.insert({"k": [99], "v": [9.0], "tag": ["z"]}, version=20)
        # the deleted tuple keeps its slot and its versions
        assert t.live_mask(snapshot=5).tolist() == [True] * 4 + [False]
        assert t.live_mask(snapshot=15).tolist() == [True, False, True, True,
                                                     False]
        assert t.live_mask(snapshot=25).tolist() == [True, False, True, True,
                                                     True]


class TestVisibilityMemo:
    """``live_mask()`` and ``has_deletes`` are computed once per stamp;
    every mutator, an adoption and a consolidation move them on."""

    def test_every_mutator_moves_the_memo(self):
        t = make_table()
        expected = [True] * 4

        def check():
            mask = t.live_mask()
            assert mask.tolist() == expected
            assert t.has_deletes == (not all(expected))
            assert t.live_mask() is mask  # one mask per stamp
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
            return mask

        check()
        t.delete([1])
        expected[1] = False
        check()
        t.insert({"k": [50], "v": [5.0], "tag": ["c"]})
        expected.append(True)
        check()
        t.update([0], {"v": [0.5]})
        check()
        t.delete([1, 4, 4])  # repeated and already-deleted positions
        expected[4] = False
        check()
        t.add_column(FixedColumn("w", DataType.INT64, data=np.zeros(5)))
        check()
        t.replace_column("w", FixedColumn("w", DataType.INT64,
                                          data=np.ones(5)))
        check()
        t.consolidate()
        expected = [True] * 3
        before = check()
        # an adoption swaps the deletion vector for an image's view
        # (equal content, same stamp) and lets the memo's copy go
        image = Table.wrap("t", [_read_only(col) for col in
                                 t.columns.values()], t.num_rows,
                           _frozen(np.zeros(3, dtype=bool)))
        assert t.adopt(image, t.mutation_count)
        assert check() is not before
        t.delete([2])
        expected[2] = False
        check()

    def test_snapshot_masks_are_not_memoized(self):
        t = make_table(mvcc=True)
        t.delete([0], version=3)
        mask = t.live_mask(snapshot=2)
        assert mask.tolist() == [True] * 4
        assert t.live_mask(snapshot=2) is not mask


def _frozen(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


def _read_only(column):
    """A read-only copy of *column*, as an image rebuild would wrap it."""
    if isinstance(column, FixedColumn):
        return FixedColumn.wrap(column.name, column.dtype,
                                _frozen(column.values()))
    return column


class TestFootprint:
    def test_nbytes_positive_and_tracks_growth(self):
        t = make_table()
        before = t.nbytes
        t.insert({"k": list(range(1000)), "v": [0.0] * 1000, "tag": ["a"] * 1000})
        assert t.nbytes > before

    def test_nbytes_counts_written_rows_not_capacity(self):
        # ~0.1 s: 300 000 fact rows of fixed-width columns, 36 bytes a
        # row with the deletion bit; an append grows every column's
        # buffer by half the table, and nbytes must not count that room
        fact = generate_ssb(sf=0.05, seed=1).table("lineorder")
        assert fact.num_rows == 300_000
        before = fact.nbytes
        assert before % fact.num_rows == 0
        per_row = before // fact.num_rows
        fact.insert(fact.gather(np.arange(100)))
        assert fact.nbytes == before + 100 * per_row
