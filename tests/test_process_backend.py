"""Portable bound plans, shared-memory arenas, and the process backend.

Pins the PR's three contracts:

* **plan portability** — a compiled :class:`BoundQuery` survives a pickle
  round-trip and executes identically;
* **cross-backend equivalence** — all 13 SSB queries return identical
  rows on the ``serial``, ``thread``, and ``process`` backends (A-Store
  and baselines alike);
* **arena hygiene** — attached databases are zero-copy and read-only,
  and no shared-memory segment survives engine close.
"""

import os
import pickle
import subprocess
import sys
import threading
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ColumnArena, attach_database
from repro.core.column import StringColumn
from repro.engine import (
    AStoreEngine,
    EngineOptions,
    RowRange,
    ShardOutcome,
    sharding,
)
from repro.engine.operators import BACKENDS, MorselDispatcher, PredicateFilter
from repro.baselines import (
    FusedEngine,
    MaterializingEngine,
    VectorizedPipelineEngine,
)
from repro.workloads import SSB_QUERIES

from .conftest import build_tiny_star

BACKEND_NAMES = ("serial", "thread", "process")


def shm_segments():
    """Names of live POSIX shared-memory segments (Linux)."""
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("psm_")]
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


class TestColumnArena:
    def test_round_trip_all_layouts(self, tiny_star):
        # add a StringColumn so all four layouts are exercised
        names = StringColumn("d_label",
                             values=[f"day-{i}" for i in range(3)])
        tiny_star.table("date").add_column(names)
        with ColumnArena.export(tiny_star) as arena:
            with attach_database(arena.manifest) as attached:
                for tname, table in tiny_star.tables.items():
                    for cname in table.column_names:
                        assert np.array_equal(
                            table[cname].values(),
                            attached.db.table(tname)[cname].values()), (
                                tname, cname)
                assert len(attached.db.references) == len(tiny_star.references)

    def test_attached_arrays_are_zero_copy_views(self, tiny_star):
        with ColumnArena.export(tiny_star) as arena:
            with attach_database(arena.manifest) as attached:
                values = attached.db.table("lineorder")["lo_revenue"].values()
                assert not values.flags.owndata
                assert not values.flags.writeable

    def test_close_unlinks_segment(self, tiny_star):
        arena = ColumnArena.export(tiny_star)
        segment = arena.manifest.segment
        assert segment in ColumnArena.live_segments()
        arena.close()
        arena.close()  # idempotent
        assert segment not in ColumnArena.live_segments()
        assert segment not in shm_segments()

    def test_deletes_and_mvcc_vectors_travel(self, tiny_star_mvcc):
        tiny_star_mvcc.table("lineorder").delete([1, 5], version=3)
        with ColumnArena.export(tiny_star_mvcc) as arena:
            with attach_database(arena.manifest) as attached:
                table = attached.db.table("lineorder")
                assert table.has_deletes
                assert np.array_equal(
                    table.live_mask(),
                    tiny_star_mvcc.table("lineorder").live_mask())
                assert np.array_equal(
                    table.live_mask(snapshot=2),
                    tiny_star_mvcc.table("lineorder").live_mask(snapshot=2))


class TestBoundPlanPortability:
    def test_pickle_round_trip_executes_identically(self, ssb_air):
        engine = AStoreEngine(ssb_air)
        for qid in ("Q1.1", "Q3.2", "Q4.1"):
            bound = engine.compile(SSB_QUERIES[qid])
            clone = pickle.loads(pickle.dumps(bound))
            assert clone.variant == bound.variant
            assert [s.op for s in clone.specs] == [s.op for s in bound.specs]
            assert (engine.run_compiled(clone).rows()
                    == engine.query(SSB_QUERIES[qid]).rows())

    def test_row_variant_plan_round_trips(self, ssb_air):
        engine = AStoreEngine.variant(ssb_air, "AIRScan_R_P")
        bound = engine.compile(SSB_QUERIES["Q2.1"])
        clone = pickle.loads(pickle.dumps(bound))
        assert clone.scan == "row"
        assert (engine.run_compiled(clone).rows()
                == engine.query(SSB_QUERIES["Q2.1"]).rows())

    def test_predicate_filter_pickles_packed_only(self):
        mask = np.zeros(1000, dtype=bool)
        mask[::7] = True
        pf = PredicateFilter(mask)
        clone = pickle.loads(pickle.dumps(pf))
        positions = np.arange(1000, dtype=np.int64)
        assert np.array_equal(clone.probe(positions), pf.probe(positions))
        # the wire form carries the packed bitmap, not the bool array
        assert len(pickle.dumps(pf)) < mask.nbytes


@pytest.fixture(scope="module")
def process_engine(ssb_air):
    """One process-backed engine shared by the differential tests, so the
    arena export and worker spawns amortize across all 13 queries."""
    engine = AStoreEngine(
        ssb_air, EngineOptions(parallel_backend="process", workers=2))
    yield engine
    engine.close()


class TestCrossBackendDifferential:
    @pytest.mark.parametrize("query_id", list(SSB_QUERIES))
    def test_ssb_identical_across_backends(self, ssb_air, process_engine,
                                           query_id):
        sql = SSB_QUERIES[query_id]
        reference = AStoreEngine(
            ssb_air, EngineOptions(parallel_backend="serial",
                                   workers=2)).query(sql).rows()
        threaded = AStoreEngine(
            ssb_air, EngineOptions(parallel_backend="thread",
                                   workers=2)).query(sql).rows()
        sharded = process_engine.query(sql).rows()
        assert threaded == reference
        assert sharded == reference

    def test_projection_identical_across_backends(self, ssb_air,
                                                  process_engine):
        sql = ("SELECT lo_orderkey FROM lineorder WHERE lo_discount = 4 "
               "ORDER BY lo_orderkey LIMIT 100")
        reference = AStoreEngine(ssb_air).query(sql).rows()
        assert process_engine.query(sql).rows() == reference

    def test_worker_counts_agree(self, ssb_air):
        sql = SSB_QUERIES["Q4.2"]
        reference = AStoreEngine(ssb_air).query(sql).rows()
        for workers in (1, 3):
            with AStoreEngine(ssb_air, EngineOptions(
                    parallel_backend="process", workers=workers)) as engine:
                assert engine.query(sql).rows() == reference

    def test_baselines_identical_on_process_backend(self, ssb_raw):
        for cls in (MaterializingEngine, VectorizedPipelineEngine,
                    FusedEngine):
            reference = cls(ssb_raw)
            with cls(ssb_raw, backend="process", workers=2) as sharded:
                for qid in ("Q1.1", "Q2.2", "Q4.3"):
                    sql = SSB_QUERIES[qid]
                    assert (sharded.query(sql).rows()
                            == reference.query(sql).rows()), (cls.name, qid)

    def test_zz_no_leaked_segments_after_suite(self):
        # runs last in this class (alphabetical within-class ordering is
        # not guaranteed, but the module-scoped engine outlives it — so
        # only *its* segment may be live, and nothing else)
        live = ColumnArena.live_segments()
        assert len(live) <= 2  # process_engine + at most one baseline arena
        assert set(shm_segments()) <= set(live)


class TestProcessBackendSemantics:
    def test_mutation_invalidates_arena(self):
        db = build_tiny_star()
        sql = ("SELECT d_year, count(*) AS n FROM lineorder, date "
               "GROUP BY d_year ORDER BY d_year")
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2)) as engine:
            before = engine.query(sql).rows()
            db.table("lineorder").delete([0, 1, 2, 3])
            after = engine.query(sql).rows()
            assert after != before
            assert after == AStoreEngine(db).query(sql).rows()
            # inserts invalidate too (slot reuse keeps row count stable);
            # the db is airified, so FK values are array positions
            db.table("lineorder").insert({
                "lo_orderkey": [9], "lo_custkey": [0],
                "lo_orderdate": [0], "lo_revenue": [1000],
                "lo_discount": [0], "lo_quantity": [1]})
            assert (engine.query(sql).rows()
                    == AStoreEngine(db).query(sql).rows())

    def test_engines_share_one_backend_per_database(self, tiny_star):
        sql = "SELECT d_year, count(*) AS n FROM lineorder, date GROUP BY d_year"
        options = EngineOptions(parallel_backend="process", workers=2)
        with AStoreEngine(tiny_star, options) as first:
            with AStoreEngine(tiny_star, options) as second:
                first.query(sql)
                segments_after_first = set(ColumnArena.live_segments())
                second.query(sql)
                # the second engine reuses the first engine's arena/pool
                assert set(ColumnArena.live_segments()) == segments_after_first
                assert first._shard_backend is second._shard_backend
                segment = first._shard_backend.arena.manifest.segment
            # one holder closed: the shared backend stays alive
            assert segment in ColumnArena.live_segments()
            assert first.query(sql).rows()
        # last holder closed: segment released
        assert segment not in ColumnArena.live_segments()
        assert segment not in shm_segments()

    def test_snapshot_reads_through_process_backend(self):
        db = build_tiny_star(mvcc=True)
        db.table("lineorder").delete([0, 1], version=5)
        sql = ("SELECT d_year, sum(lo_revenue) AS r FROM lineorder, date "
               "GROUP BY d_year ORDER BY d_year")
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2)) as engine:
            ref = AStoreEngine(db)
            assert (engine.query(sql, snapshot=4).rows()
                    == ref.query(sql, snapshot=4).rows())
            assert (engine.query(sql, snapshot=5).rows()
                    == ref.query(sql, snapshot=5).rows())

    def test_engine_close_releases_segment(self, tiny_star):
        engine = AStoreEngine(tiny_star, EngineOptions(
            parallel_backend="process", workers=2))
        sql = "SELECT d_year, count(*) AS n FROM lineorder, date GROUP BY d_year"
        rows = engine.query(sql).rows()
        assert rows
        segment = engine._shard_backend.arena.manifest.segment
        engine.close()
        assert segment not in shm_segments()
        assert segment not in ColumnArena.live_segments()

    def test_backend_registry_kinds(self):
        assert BACKENDS["serial"].inline
        assert BACKENDS["thread"].inline
        assert not BACKENDS["process"].inline


def shard_morsel_kinds(monkeypatch, bound, db, nshards):
    """Run every shard of *bound* in-process; returns the position types
    of the morsels the shards built and shard 0's outcome."""
    kinds = []
    run = MorselDispatcher.run

    def spy(self, morsels, factory):
        kinds.extend(type(m.positions) for m in morsels)
        return run(self, morsels, factory)

    monkeypatch.setattr(MorselDispatcher, "run", spy)
    outcomes = [bound.run_shard(db, shard, nshards, None)
                for shard in range(nshards)]
    monkeypatch.undo()
    return kinds, outcomes[0]


class TestRangeBase:
    def test_visibility_mask_only_after_deletes_or_snapshot(
            self, tiny_star_mvcc):
        sql = "SELECT count(*) AS n FROM lineorder"
        engine = AStoreEngine(tiny_star_mvcc)
        assert engine.compile(sql).visibility(tiny_star_mvcc) is None
        at_snapshot = engine.compile(sql, snapshot=0).visibility(
            tiny_star_mvcc)
        assert at_snapshot.tolist() == [True] * 8
        tiny_star_mvcc.table("lineorder").delete([1, 5], version=1)
        live = engine.compile(sql).visibility(tiny_star_mvcc)
        assert np.flatnonzero(live).tolist() == [0, 2, 3, 4, 6, 7]

    @pytest.mark.parametrize("query_id, pruning, verdict", [
        ("Q1.1", True, "skipped"),
        ("Q3.1", True, "gated"),
        ("Q3.1", False, None),
    ])
    def test_no_delete_shards_scan_range_bands(self, ssb_air, monkeypatch,
                                               query_id, pruning, verdict):
        bound = AStoreEngine(ssb_air, EngineOptions(
            use_pruning=pruning)).compile(SSB_QUERIES[query_id])
        kinds, outcome = shard_morsel_kinds(monkeypatch, bound, ssb_air, 2)
        assert kinds and set(kinds) == {RowRange}
        assert bool(outcome.morsels_skipped) == (verdict == "skipped")
        assert bool(outcome.prune_gated) == (verdict == "gated")
        kinds, _ = shard_morsel_kinds(monkeypatch, bound, ssb_air, 1)
        # one shard scans the survivor band, or the identity morsel
        assert kinds == [RowRange if verdict == "skipped" else type(None)]

    def test_deletes_keep_range_bands(self, tiny_star, monkeypatch):
        tiny_star.table("lineorder").delete([2])
        sql = ("SELECT d_year, count(*) AS n FROM lineorder, date "
               "GROUP BY d_year")
        bound = AStoreEngine(tiny_star).compile(sql)
        kinds, _ = shard_morsel_kinds(monkeypatch, bound, tiny_star, 2)
        assert kinds == [RowRange, RowRange]
        kinds, outcome = shard_morsel_kinds(monkeypatch, bound, tiny_star, 1)
        assert kinds == [type(None)] and outcome.selected == 7

    @pytest.mark.parametrize("pruning", [True, False])
    def test_cost_gated_family_matches_serial(self, ssb_air, process_engine,
                                              pruning):
        serial = AStoreEngine(ssb_air, EngineOptions(
            parallel_backend="serial", use_pruning=pruning))
        with AStoreEngine(ssb_air, EngineOptions(
                parallel_backend="process", workers=2,
                use_pruning=pruning)) as sharded:
            for query_id in ("Q3.1", "Q3.2", "Q3.3"):
                sql = SSB_QUERIES[query_id]
                assert (sharded.query(sql).rows()
                        == serial.query(sql).rows()), query_id


class TestPlanReferenceTasks:
    def test_worker_plan_lru(self, tiny_star, monkeypatch):
        monkeypatch.setattr(sharding, "_ATTACHED",
                            SimpleNamespace(db=tiny_star))
        monkeypatch.setattr(sharding, "_PLANS", OrderedDict())
        monkeypatch.setattr(sharding, "WORKER_PLAN_CAPACITY", 2)
        engine = AStoreEngine(tiny_star)
        blobs = [pickle.dumps(engine.compile(
            f"SELECT d_year, count(*) AS n FROM lineorder, date "
            f"WHERE lo_discount = {discount} GROUP BY d_year"))
            for discount in (1, 2, 3)]

        def run(seq, ship=False):
            return sharding._worker_run(sharding.ShardTask(
                seq, 0, 1, None, blobs[seq] if ship else None))

        assert run(0) == sharding.PlanMiss(0)
        shipped = run(0, ship=True)
        assert isinstance(shipped, ShardOutcome)
        assert run(0).selected == shipped.selected
        run(1, ship=True)
        run(2, ship=True)  # over capacity: plan 0 is least recently used
        assert list(sharding._PLANS) == [1, 2]
        assert run(0) == sharding.PlanMiss(0)
        assert isinstance(run(1), ShardOutcome)

    def test_warm_flight_sends_only_references(self, ssb_air):
        flight = list(SSB_QUERIES.values())
        with AStoreEngine(ssb_air, EngineOptions(
                parallel_backend="process", workers=1)) as engine:
            first = [engine.query(sql).rows() for sql in flight]
            backend = engine._shard_backend
            warm = backend.traffic()
            assert [engine.query(sql).rows() for sql in flight] == first
            after = backend.traffic()
            tasks = after["tasks"] - warm["tasks"]
            assert tasks == len(flight)
            assert after["plan_ships"] == warm["plan_ships"]
            assert after["plan_misses"] == 0
            assert after["task_bytes"] - warm["task_bytes"] < 1024 * tasks
            # a worker that lost its plans answers PlanMiss, and the
            # shard is resent once with the plan bytes
            backend._pool.submit(
                exec, "import repro.engine.sharding as s; s._PLANS.clear()",
                {}).result()
            assert engine.query(flight[0]).rows() == first[0]
            final = backend.traffic()
            assert final["plan_misses"] == 1
            assert final["plan_ships"] == after["plan_ships"] + 1

    def test_concurrent_runs_count_every_task(self, process_engine):
        flight = [SSB_QUERIES[q] for q in ("Q1.1", "Q2.1", "Q3.1", "Q4.1")]
        for sql in flight:  # compiled, cached and shipped once
            process_engine.query(sql)
        backend = process_engine._shard_backend
        before = backend.traffic()
        errors = []

        def client():
            try:
                for sql in flight * 2:
                    process_engine.query(sql)
            except BaseException as exc:  # re-raised below
                errors.append(exc)

        clients = [threading.Thread(target=client) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert not errors, errors
        after = backend.traffic()
        misses = after["plan_misses"] - before["plan_misses"]
        # two shards per run, plus one resend per miss; nothing lost
        assert (after["tasks"] - before["tasks"]
                == 2 * len(clients) * len(flight) * 2 + misses)
        assert after["plan_ships"] - before["plan_ships"] == misses


class TestDatagenCrossProcessDeterminism:
    def test_identical_data_under_different_hash_seeds(self):
        script = (
            "from repro.datagen import generate_ssb\n"
            "import numpy as np, zlib\n"
            "db = generate_ssb(sf=0.002, seed=9)\n"
            "lo = db.table('lineorder')\n"
            "digest = 0\n"
            "for name in ('lo_revenue', 'lo_orderdate', 'lo_custkey'):\n"
            "    digest = zlib.crc32(np.ascontiguousarray("
            "lo[name].values()).tobytes(), digest)\n"
            "print(digest)\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src_dir] + env.get("PYTHONPATH", "").split(os.pathsep))
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1
