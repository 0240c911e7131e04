"""Deletes and MVCC snapshots as a visibility mask over the range band.

Pins the contracts of the one scan base:

* every A-Store scan covers the physical band ``[0, num_rows)`` as
  zero-copy ``RowRange`` / identity morsels, with or without deletes or
  a snapshot — never as a row-id array;
* a morsel carries its cut of the visibility mask only when some of its
  rows are hidden; the first refinement folds the mask in, and
  ``Visible`` / ``ApplyMask`` settle morsels no filter refined;
* answers after deletes and at MVCC snapshots equal the denormalized
  oracle materialized with the same visibility, on every backend, with
  pruning on and off, for the column, row and projection scans — for a
  fixed history and for random versioned histories (a hypothesis state
  machine that pins and releases snapshots between writes).
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.baselines import DenormalizedEngine
from repro.core import Table
from repro.datagen import generate_ssb
from repro.engine import AStoreEngine, EngineOptions, RowRange
from repro.engine.operators import (
    ApplyMask,
    Filter,
    Morsel,
    MorselDispatcher,
    Visible,
)
from repro.engine.slice import universal_provider
from repro.plan import bind, optimize
from repro.updates import TransactionManager
from repro.workloads import SSB_QUERIES

from .conftest import build_tiny_star

#: one query per Q1-Q3 family: min/max bands, code sets, both
CHECKED = ("Q1.1", "Q2.1", "Q3.2")


def band_morsel(db, sql, start, stop, visible):
    logical = bind(sql, db)
    positions = RowRange(start, stop)
    return optimize(logical, db), Morsel(
        positions, universal_provider(db, logical.root, logical.paths,
                                      positions), visible=visible)


class TestVisibleMorsels:
    SQL = "SELECT count(*) FROM lineorder WHERE lo_revenue >= 30"

    def test_first_refine_folds_the_mask(self):
        db = build_tiny_star()
        visible = np.array([True, False, True, True])
        physical, morsel = band_morsel(db, self.SQL, 2, 6, visible)
        (expr, _), = physical.fact_conjuncts
        out = Filter(expr).process(morsel)
        # rows 2..5 have lo_revenue 30..60; row 3 is hidden
        assert out.positions.tolist() == [2, 4, 5]
        assert out.visible is None

    def test_visible_settles_unrefined_morsels(self):
        db = build_tiny_star()
        _, morsel = band_morsel(db, self.SQL, 0, 4,
                                np.array([False, True, True, False]))
        morsel.prefiltered = True
        assert Visible().process(morsel).positions.tolist() == [1, 2]
        _, clean = band_morsel(db, self.SQL, 0, 4, None)
        assert Visible().process(clean) is clean

    def test_apply_mask_folds_visibility_without_pending(self):
        db = build_tiny_star()
        _, morsel = band_morsel(db, self.SQL, 4, 8,
                                np.array([True, True, False, True]))
        assert ApplyMask().process(morsel).positions.tolist() == [4, 5, 7]


def morsel_kinds(monkeypatch, engine, sql):
    """Run *sql*; returns the position types of the scan morsels and
    whether any of them carried a visibility mask."""
    calls = []
    run = MorselDispatcher.run

    def spy(self, morsels, factory):
        calls.append([(type(m.positions), m.visible is not None)
                      for m in morsels])
        return run(self, morsels, factory)

    monkeypatch.setattr(MorselDispatcher, "run", spy)
    result = engine.query(sql)
    monkeypatch.undo()
    scan = calls[0]  # the aggregate pass runs over refined morsels
    return {kind for kind, _ in scan}, any(m for _, m in scan), result


class TestBandAfterDeletes:
    def test_deleted_rows_keep_zero_copy_bands(self, monkeypatch):
        db = generate_ssb(sf=0.002, seed=25)
        fact = db.table("lineorder")
        fact.delete(np.arange(0, fact.num_rows, 97))
        sql = SSB_QUERIES["Q3.1"]
        for workers, kinds in ((1, {type(None)}), (2, {RowRange})):
            engine = AStoreEngine(db, EngineOptions(
                parallel_backend="thread", workers=workers, use_cache=False,
                use_pruning=False))
            seen, masked, result = morsel_kinds(monkeypatch, engine, sql)
            assert seen == kinds and masked
            assert result.stats.rows_scanned == fact.num_live

    def test_deletes_outside_survivors_carry_no_mask(self, monkeypatch):
        db = generate_ssb(sf=0.002, seed=26)
        db.table("lineorder").delete(np.arange(0, 32))  # 1992 rows
        sql = ("SELECT sum(lo_revenue) AS r FROM lineorder, date "
               "WHERE lo_orderdate = d_datekey AND d_year = 1998")
        engine = AStoreEngine(db, EngineOptions(use_cache=False))
        _, masked, result = morsel_kinds(monkeypatch, engine, sql)
        assert not masked
        assert result.stats.morsels_skipped > 0


def versioned_ssb(sf=0.002, seed=31):
    """An SSB database whose tables keep MVCC versions."""
    db = generate_ssb(sf=sf, seed=seed)
    for name, table in list(db.tables.items()):
        versioned = Table(name, mvcc=True)
        for column in table.columns.values():
            versioned.add_column(column)
        db.tables[name] = versioned
    return db


@pytest.fixture(scope="module")
def history():
    """A versioned SSB database after deletes and appends, with one
    snapshot pinned before the writes and one between them."""
    db = versioned_ssb()
    fact = db.table("lineorder")
    txn = TransactionManager(db)
    rng = np.random.default_rng(4)
    before = txn.snapshot()
    txn.delete("lineorder", rng.choice(fact.num_rows, 600, replace=False))
    txn.insert("lineorder", fact.gather(rng.choice(fact.num_rows, 200,
                                                   replace=False)))
    txn.delete("lineorder", np.arange(100, 300))
    after = txn.snapshot()
    txn.delete("lineorder", rng.choice(np.flatnonzero(fact.live_mask()),
                                       300, replace=False))
    return db, {"before": before, "after": after, "now": None}


@pytest.fixture(scope="module")
def oracle_rows(history):
    db, snapshots = history
    rows = {}
    for label, snapshot in snapshots.items():
        oracle = DenormalizedEngine(db, snapshot=snapshot)
        rows[label] = {qid: sorted(oracle.query(SSB_QUERIES[qid]).rows())
                       for qid in SSB_QUERIES}
    return rows


class TestSnapshotsMatchOracle:
    @pytest.mark.parametrize("variant", ["AIRScan_C_P_G", "AIRScan_R_P"])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_all_queries_at_every_snapshot(self, history, oracle_rows,
                                           variant, backend, pruning):
        db, snapshots = history
        engine = AStoreEngine.variant(db, variant, parallel_backend=backend,
                                      workers=2, use_pruning=pruning)
        for label, snapshot in snapshots.items():
            for qid, sql in SSB_QUERIES.items():
                rows = sorted(engine.query(sql, snapshot=snapshot).rows())
                assert rows == oracle_rows[label][qid], (label, qid)

    def test_process_shards(self, history, oracle_rows):
        db, snapshots = history
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2)) as engine:
            for label, snapshot in snapshots.items():
                for qid in CHECKED:
                    rows = engine.query(SSB_QUERIES[qid],
                                        snapshot=snapshot).rows()
                    assert sorted(rows) == oracle_rows[label][qid], (label,
                                                                     qid)

    def test_projection_hides_rows(self, history):
        db, snapshots = history
        fact = db.table("lineorder")
        sql = ("SELECT lo_revenue FROM lineorder, date "
               "WHERE lo_orderdate = d_datekey AND d_year = 1993")
        engine = AStoreEngine(db)
        for snapshot in snapshots.values():
            year = db.table("date")["d_year"].values()[
                fact["lo_orderdate"].values()]
            visible = fact.live_mask(snapshot) & (year == 1993)
            got = engine.query(sql, snapshot=snapshot).column("lo_revenue")
            assert sorted(got.tolist()) == sorted(
                fact["lo_revenue"].values()[visible].tolist())


class SnapshotHistory(RuleBasedStateMachine):
    """Random versioned write histories: at every pinned snapshot, and
    now, the cached, pruned engine answers like the oracle built at
    that snapshot.  Releasing a snapshot lets later inserts reuse the
    slots only it could still see."""

    def __init__(self):
        super().__init__()
        self.db = versioned_ssb(seed=32)
        self.fact = self.db.table("lineorder")
        self.txn = TransactionManager(self.db)
        self.rng = np.random.default_rng(0)
        self.engine = AStoreEngine(self.db)
        self.snapshots = [None]

    def teardown(self):
        self.engine.close()

    def live(self, n):
        live = np.flatnonzero(self.fact.live_mask())
        return self.rng.choice(live, min(n, len(live)), replace=False)

    @rule(n=st.integers(1, 800))
    def delete(self, n):
        self.txn.delete("lineorder", self.live(n))

    @rule(n=st.integers(1, 800))
    def insert(self, n):
        self.txn.insert("lineorder", self.fact.gather(self.live(n)))

    @rule(n=st.integers(1, 800))
    def update_measure(self, n):
        positions = self.live(n)
        self.txn.update("lineorder", positions, {
            "lo_revenue": self.rng.integers(0, 10_000_000, len(positions))})

    @precondition(lambda self: len(self.snapshots) < 3)
    @rule()
    def pin(self):
        self.snapshots.append(self.txn.snapshot())

    @precondition(lambda self: len(self.snapshots) > 1)
    @rule()
    def release_oldest(self):
        self.txn.release(self.snapshots.pop(1))

    @invariant()
    def snapshot_reads_match_oracle(self):
        for snapshot in self.snapshots:
            oracle = DenormalizedEngine(self.db, snapshot=snapshot)
            for qid in CHECKED:
                sql = SSB_QUERIES[qid]
                assert (sorted(self.engine.query(sql, snapshot=snapshot).rows())
                        == sorted(oracle.query(sql).rows())), (snapshot, qid)


TestSnapshotHistory = SnapshotHistory.TestCase
TestSnapshotHistory.settings = settings(
    max_examples=3, stateful_step_count=6, deadline=None)
