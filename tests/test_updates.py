"""Tests for update handling and MVCC (TransactionManager, WriteBatch,
consolidation with reference rewriting, FK-checked deletion)."""

import numpy as np
import pytest

from repro.engine import AStoreEngine
from repro.errors import UpdateError
from repro.updates import TransactionManager, WriteBatch

from .conftest import build_tiny_star


NEW_ROW = {
    "lo_orderkey": [100], "lo_custkey": [0], "lo_orderdate": [0],
    "lo_revenue": [999], "lo_discount": [0], "lo_quantity": [1],
}


class TestTransactionManager:
    def test_versions_advance(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        v0 = txn.snapshot()
        txn.insert("lineorder", NEW_ROW)
        assert txn.snapshot() == v0 + 1

    def test_insert_visible_after_snapshot(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        engine = AStoreEngine(db)
        before = txn.snapshot()
        txn.insert("lineorder", NEW_ROW)
        sql = "SELECT count(*) AS n FROM lineorder"
        assert engine.query(sql, snapshot=before).scalar() == 8
        assert engine.query(sql, snapshot=txn.snapshot()).scalar() == 9

    def test_delete_versioned(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        engine = AStoreEngine(db)
        mid = txn.snapshot()
        txn.delete("lineorder", [0, 1, 2])
        sql = "SELECT sum(lo_revenue) AS s FROM lineorder"
        assert engine.query(sql, snapshot=mid).scalar() == 360
        assert engine.query(sql, snapshot=txn.snapshot()).scalar() == 300

    def test_update_in_place(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        txn.update("lineorder", [0], {"lo_revenue": [1000]})
        assert db.table("lineorder").row(0)["lo_revenue"] == 1000

    def test_update_air_column_rejected(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        with pytest.raises(UpdateError):
            txn.update("lineorder", [0], {"lo_custkey": [1]})

    def test_failed_insert_does_not_burn_version(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        v = txn.current_version
        with pytest.raises(Exception):
            txn.insert("lineorder", {"lo_orderkey": [1]})  # missing columns
        assert txn.current_version == v


class TestReferenceCheckedDelete:
    def test_referenced_dim_delete_rejected(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        with pytest.raises(UpdateError):
            txn.delete("customer", [0], check_references=True)

    def test_unreferenced_dim_delete_allowed(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        # remove all fact rows pointing at customer 0 first
        refs = db.table("lineorder")["lo_custkey"].values()
        txn.delete("lineorder", np.flatnonzero(refs == 0))
        assert txn.delete("customer", [0], check_references=True) == 1

    def test_unchecked_delete_is_lazy(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        txn.delete("customer", [0])  # allowed; consolidation would fail
        assert db.table("customer").num_live == 3


class TestConsolidation:
    def test_consolidate_rewrites_references(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        engine = AStoreEngine(db)
        sql = ("SELECT c_nation, sum(lo_revenue) AS s FROM lineorder, customer "
               "GROUP BY c_nation ORDER BY c_nation")
        before = engine.query(sql).rows()

        # delete all fact rows of customer 0, then customer 0 itself
        refs = db.table("lineorder")["lo_custkey"].values()
        txn.delete("lineorder", np.flatnonzero(refs == 0))
        txn.delete("customer", [0])
        txn.consolidate("customer")

        after = engine.query(sql).rows()
        expected = [row for row in before if row[0] != "CHINA"]
        assert after == expected
        assert db.table("customer").num_rows == 3

    def test_slot_reuse_after_delete(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        txn.delete("lineorder", [3])
        pos = txn.insert("lineorder", NEW_ROW)
        assert pos.tolist() == [8]  # appended: no slot is reused
        fact = db.table("lineorder")
        assert fact.num_rows == 9 and fact.num_live == 8
        # compaction drops exactly the deleted row
        mapping = txn.consolidate("lineorder")
        assert mapping.tolist() == [0, 1, 2, -1, 3, 4, 5, 6, 7]
        assert fact.num_rows == 8 and not fact.has_deletes

    def test_pinned_snapshot_blocks_slot_reuse(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        engine = AStoreEngine(db)
        snap = txn.snapshot()  # the pre-delete state
        txn.delete("lineorder", [3])
        pos = txn.insert("lineorder", NEW_ROW)
        assert pos.tolist() == [8]  # appended: slot 3 keeps its tuple
        sql = "SELECT sum(lo_revenue) AS s FROM lineorder"
        assert engine.query(sql, snapshot=snap).scalar() == 360

    def test_snapshot_stays_exact_without_pins(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        engine = AStoreEngine(db)
        snap = txn.snapshot()
        txn.release(snap)  # holds nothing: the snapshot still reads exactly
        txn.delete("lineorder", [3])
        txn.insert("lineorder", NEW_ROW)
        txn.insert("lineorder", NEW_ROW)
        sql = "SELECT sum(lo_revenue) AS s FROM lineorder"
        assert engine.query(sql, snapshot=snap).scalar() == 360
        assert engine.query(sql).scalar() == 360 - 40 + 2 * 999


class TestWriteBatch:
    def test_batch_is_atomic_for_snapshots(self):
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        engine = AStoreEngine(db)
        before = txn.snapshot()
        with WriteBatch(txn) as batch:
            batch.insert("lineorder", NEW_ROW)
            batch.delete("lineorder", [0])
        after = txn.snapshot()
        sql = "SELECT count(*) AS n FROM lineorder"
        assert engine.query(sql, snapshot=before).scalar() == 8
        assert engine.query(sql, snapshot=after).scalar() == 8  # +1 -1
        assert after == before + 1  # one version for the whole batch

    def test_batch_outside_context_rejected(self):
        db = build_tiny_star(mvcc=True)
        batch = WriteBatch(TransactionManager(db))
        with pytest.raises(UpdateError):
            batch.insert("lineorder", NEW_ROW)


class TestQueryingUnderChurn:
    def test_aggregates_stay_consistent_per_snapshot(self):
        """Simulated real-time analytics: writers churn, readers pin."""
        db = build_tiny_star(mvcc=True)
        txn = TransactionManager(db)
        engine = AStoreEngine(db)
        sql = "SELECT sum(lo_revenue) AS s FROM lineorder"
        snapshots = [(txn.snapshot(), 360)]
        total = 360
        rng = np.random.default_rng(0)
        for i in range(20):
            if rng.random() < 0.5:
                revenue = int(rng.integers(1, 100))
                row = dict(NEW_ROW)
                row["lo_revenue"] = [revenue]
                row["lo_orderkey"] = [200 + i]
                txn.insert("lineorder", row)
                total += revenue
            else:
                live = np.flatnonzero(db.table("lineorder").live_mask())
                victim = int(rng.choice(live))
                revenue = db.table("lineorder").row(victim)["lo_revenue"]
                txn.delete("lineorder", [victim])
                total -= revenue
            snapshots.append((txn.snapshot(), total))
        for snapshot, expected in snapshots:
            assert engine.query(sql, snapshot=snapshot).scalar() == expected
