"""Portable bound plans, exported database images, and the process backend.

Pins these contracts:

* **plan portability** — a compiled :class:`BoundQuery` survives a pickle
  round-trip and executes identically;
* **cross-backend equivalence** — all 13 SSB queries return identical
  A-Store rows on the ``serial``, ``thread``, and ``process`` backends;
* **arena hygiene** — attached databases are zero-copy and read-only,
  an export faults in no image page, a database owns at most one image,
  which every engine over it reuses until a write moves its stamp, and
  no image survives its database, a killed worker, or an exporter that
  exits without closing;
* **one pool per database** — every engine over a database, of any
  shard count, runs on the database's one worker pool, which grows to
  the largest shard count asked for and ends when the database is
  collected; a worker that re-attaches after a write unmaps the image
  it held, and engines of two shard counts querying from two threads
  across writes both finish;
* **adoption** — the coordinator's database adopts the image as its
  storage, a write copies only the buffers it touches and never
  reaches the image a run reads, and a writer racing exports loses no
  write;
* **pool death** — a SIGKILLed pool worker surfaces as a typed
  :class:`~repro.errors.ShardExecutionError`, the engine degrades that
  query to serial shards (``shard_fallbacks``), and the next query gets
  a fresh pool.
"""

import contextlib
import gc
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ColumnArena, attach_database
from repro.core.arena import layout_database
from repro.core.column import DictColumn, FixedColumn, StringColumn
from repro.core.table import Table
from repro.datagen import generate_ssb
from repro.engine import (
    AStoreEngine,
    EngineOptions,
    RowRange,
    ShardOutcome,
    sharding,
)
from repro.engine.operators import BACKENDS, MorselDispatcher, PredicateFilter
from repro.errors import ExecutionError
from repro.workloads import SSB_QUERIES

from .conftest import build_tiny_star, live_children, owned_images

BACKEND_NAMES = ("serial", "thread", "process")


def dev_shm_names():
    """Entries in ``/dev/shm`` named like a shared-memory segment or an
    image file (``psm_*``, ``astore-*``); the arena creates neither."""
    try:
        return {n for n in os.listdir("/dev/shm")
                if n.startswith(("psm_", "astore-"))}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def open_images():
    """The exported images (by inode) this process still holds: through
    an arena's descriptor or an attachment's mapping, which keeps a
    descriptor of its own.  Collects garbage first, so a dropped
    attachment is gone."""
    gc.collect()
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):
            if os.readlink(f"/proc/self/fd/{fd}").startswith(
                    "/memfd:astore-image"):
                found.add(os.stat(f"/proc/self/fd/{fd}").st_ino)
    return found


def table_buffers(db, table):
    """Every fixed-width buffer of *table* by name, as the image lays
    them out: column data, codes, addresses, deletion bits, versions."""
    return {key.split("//", 1)[1]: array
            for key, array in layout_database(db)[1]
            if key.startswith(f"{table}//")}


def adopted_images(*dbs):
    """The images (by inode) whose mappings back a buffer of one of
    *dbs*: the storage a database adopted from a process-shard export."""
    mapped = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            if "memfd:astore-image" in line:
                fields = line.split()
                start, end = (int(x, 16) for x in fields[0].split("-"))
                mapped.append((start, end, int(fields[4])))
    found = set()
    for db in dbs:
        for _, array in layout_database(db)[1]:
            address = array.__array_interface__["data"][0]
            found.update(inode for start, end, inode in mapped
                         if array.nbytes and start <= address < end)
    return found


def python_env():
    """The environment a child interpreter needs to import ``repro`` and
    ``tests`` from this checkout."""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    return env


def image_of(arena):
    """The inode of an open arena's image."""
    return os.stat(arena.manifest.path).st_ino


def mapped_images(pid):
    """The images (by inode) process *pid* maps."""
    with open(f"/proc/{pid}/maps") as maps:
        return {int(line.split()[4]) for line in maps
                if "memfd:astore-image" in line}


def rss_shmem_bytes():
    """This process's resident shared-memory pages (Linux)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("RssShmem:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no RssShmem in /proc/self/status")


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

    def test_close_releases_the_image(self, tiny_star):
        names = dev_shm_names()
        arena = ColumnArena.export(tiny_star)
        path, image = arena.manifest.path, image_of(arena)
        assert path in ColumnArena.live_segments()
        assert image in open_images()
        arena.close()
        arena.close()  # idempotent
        assert path not in ColumnArena.live_segments()
        assert image not in open_images()
        assert dev_shm_names() == names

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads RssShmem from /proc")
    def test_export_faults_in_no_image_page(self, ssb_air):
        gc.collect()  # no unmapping of earlier attachments mid-measure
        before = rss_shmem_bytes()
        with ColumnArena.export(ssb_air) as arena:
            grown = rss_shmem_bytes() - before
            assert grown <= 0.1 * arena.nbytes, (grown, arena.nbytes)
            # attaching maps the image; reading one column faults in
            # that column's pages, not the image's
            with attach_database(arena.manifest) as attached:
                revenue = attached.db.table("lineorder")["lo_revenue"]
                assert rss_shmem_bytes() - before <= 0.1 * arena.nbytes
                int(revenue.values().sum())
                grown = rss_shmem_bytes() - before
                assert revenue.values().nbytes <= grown
                assert grown <= (revenue.values().nbytes
                                 + 0.1 * arena.nbytes)

    def test_attached_views_outlive_close(self, tiny_star):
        arena = ColumnArena.export(tiny_star)
        attached = attach_database(arena.manifest)
        values = attached.db.table("lineorder")["lo_revenue"].values()
        attached.close()
        arena.close()
        # the views hold their mapping: still readable, still equal
        assert np.array_equal(
            values, tiny_star.table("lineorder")["lo_revenue"].values())

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

    def test_worker_counts_agree(self):
        # a database of its own: three shards grow its pool to two
        # workers, and ssb_air's pool keeps one (see conftest)
        db = generate_ssb(sf=0.005, seed=11)
        sql = SSB_QUERIES["Q4.2"]
        reference = AStoreEngine(db).query(sql).rows()
        for workers in (1, 3):
            with AStoreEngine(db, EngineOptions(
                    parallel_backend="process", workers=workers)) as engine:
                assert engine.query(sql).rows() == reference

    def test_zz_no_leaked_segments_after_suite(self, ssb_air):
        # runs last in this class (alphabetical within-class ordering is
        # not guaranteed): every other process engine so far ran over
        # ssb_air or over a database already collected, so the only open
        # image is the one ssb_air owns plus the mappings it adopted (the
        # baselines run in process and export nothing)
        held = open_images()  # collects garbage first
        live = set(ColumnArena.live_segments())
        owned = owned_images(ssb_air)
        assert live == owned
        assert held <= ({os.stat(path).st_ino for path in owned}
                        | adopted_images(ssb_air))


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
            # inserts invalidate too; the db is airified, so FK values
            # are array positions
            db.table("lineorder").insert({
                "lo_orderkey": [9], "lo_custkey": [0],
                "lo_orderdate": [0], "lo_revenue": [1000],
                "lo_discount": [0], "lo_quantity": [1]})
            assert (engine.query(sql).rows()
                    == AStoreEngine(db).query(sql).rows())

    def test_engines_share_one_backend_per_database(self):
        # the database owns one pool, sized to the largest shard count
        # asked for: once a 3-shard engine has run, engines of any shard
        # count over the database start no process
        db = build_tiny_star()
        sql = "SELECT d_year, count(*) AS n FROM lineorder, date GROUP BY d_year"
        reference = AStoreEngine(db).query(sql).rows()
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=3)) as first:
            assert first.query(sql).rows() == reference
        backend = sharding.shard_backend(db)
        pids, children = backend.worker_pids(), set(live_children())
        assert len(pids) == 2 and pids <= children
        for workers in (2, 3, 2):
            with AStoreEngine(db, EngineOptions(
                    parallel_backend="process", workers=workers)) as engine:
                assert engine.query(sql).rows() == reference
                assert engine._slot.backend is backend
        assert backend.worker_pids() == pids
        assert set(live_children()) == children

    def test_backends_reuse_the_database_image(self, monkeypatch):
        # a database owns one image: a reopened engine and an engine of
        # another shard count attach to it instead of exporting again;
        # a write followed by queries of both shard counts exports once,
        # and the database takes the last image along
        db = build_tiny_star()
        sql = ("SELECT d_year, sum(lo_revenue) AS r FROM lineorder, date "
               "GROUP BY d_year ORDER BY d_year")
        serial = AStoreEngine(db, EngineOptions(use_cache=False))
        export, exports = ColumnArena.export.__func__, []

        def counted(cls, *args, **kwargs):
            exports.append(export(cls, *args, **kwargs))
            return exports[-1]

        monkeypatch.setattr(ColumnArena, "export", classmethod(counted))
        before = open_images()
        held = []
        for workers in (2, 2, 3):
            with AStoreEngine(db, EngineOptions(
                    parallel_backend="process", workers=workers)) as engine:
                assert engine.query(sql).rows() == serial.query(sql).rows()
                held.append(open_images() - before)
            held.append(open_images() - before)
        [first] = exports
        old = image_of(first)
        assert held == [{old}] * 6
        db.table("lineorder").update([0, 3], {"lo_revenue": [7, 9]})
        for workers in (3, 2):
            with AStoreEngine(db, EngineOptions(
                    parallel_backend="process", workers=workers)) as engine:
                assert engine.query(sql).rows() == serial.query(sql).rows()
        assert len(exports) == 2 and first.closed
        assert open_images() - before == {image_of(exports[1])} != {old}
        del engine, serial, db
        assert open_images() == before
        assert exports[1].closed

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

    def test_collecting_the_database_ends_workers_and_image(self):
        db = build_tiny_star()
        names = dev_shm_names()
        sql = "SELECT d_year, count(*) AS n FROM lineorder, date GROUP BY d_year"
        with AStoreEngine(db, EngineOptions(
                parallel_backend="process", workers=2)) as engine:
            assert engine.query(sql).rows()
        # closing the engine released nothing: the worker and the image
        # are the database's, which adopted the image as its storage
        backend = sharding.shard_backend(db)
        pids, arena = backend.worker_pids(), backend.arena
        path, image = arena.manifest.path, image_of(arena)
        assert len(pids) == 1 and pids <= set(live_children())
        assert owned_images(db) == {path}
        assert open_images() & {image} == adopted_images(db) == {image}
        # they go with the database
        del engine, db
        gc.collect()
        assert not pids & set(live_children())
        assert backend.worker_pids() == frozenset()
        assert arena.closed and path not in ColumnArena.live_segments()
        assert image not in open_images()
        assert dev_shm_names() == names

    def test_exit_without_close_leaves_nothing(self, tmp_path):
        # an exporter that reaps its workers and exits with its database
        # alive: the image had no name, so nothing survives it
        script = tmp_path / "exit_unclosed.py"
        script.write_text(
            "import os\n"
            "from repro.engine import AStoreEngine, EngineOptions\n"
            "from tests.conftest import build_tiny_star\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    engine = AStoreEngine(build_tiny_star(), EngineOptions(\n"
            "        parallel_backend='process', workers=2))\n"
            "    engine.query('SELECT count(*) AS n FROM lineorder')\n"
            "    backend = engine._slot.backend\n"
            "    for proc in list(backend._pool._processes.values()):\n"
            "        proc.kill()\n"
            "        proc.join()\n"
            "    print(backend.arena.manifest.path, flush=True)\n"
            "    os._exit(0)\n")
        names = dev_shm_names()
        out = subprocess.run([sys.executable, str(script)],
                             env=python_env(), capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        path = out.stdout.strip()
        assert path.startswith("/proc/") and not os.path.exists(path)
        assert dev_shm_names() == names

    def test_backend_registry_kinds(self):
        assert BACKENDS["serial"].inline
        assert BACKENDS["thread"].inline
        assert not BACKENDS["process"].inline


class TestDatabasePool:
    """The database's one pool across writes and shard counts (~1.5 s:
    each test spawns its own database's workers)."""

    SQL = ("SELECT d_year, sum(lo_revenue) AS r FROM lineorder, date "
           "GROUP BY d_year ORDER BY d_year")

    def test_reattach_unmaps_the_old_image(self):
        # after a write and the next query, the worker maps exactly one
        # image, the new one: re-attaching unmapped the old
        db = build_tiny_star()
        serial = AStoreEngine(db, EngineOptions(use_cache=False))
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2)) as engine:
            assert engine.query(self.SQL).rows() == serial.query(
                self.SQL).rows()
            backend = engine._slot.backend
            [pid] = backend.worker_pids()
            first = image_of(backend.arena)
            assert mapped_images(pid) == {first}
            db.table("lineorder").update([0, 3], {"lo_revenue": [7, 9]})
            assert engine.query(self.SQL).rows() == serial.query(
                self.SQL).rows()
            second = image_of(backend.arena)
            assert second != first
            assert mapped_images(pid) == {second}

    def test_two_shard_counts_query_concurrently_across_writes(self):
        # a 2-shard and a 3-shard engine share the pool from two threads,
        # with a write between rounds: neither stalls behind the other,
        # and every answer equals serial
        db = generate_ssb(sf=0.002, seed=5)
        fact = db.table("lineorder")
        queries = [SSB_QUERIES[q] for q in ("Q1.1", "Q2.1", "Q3.1", "Q4.1")]
        serial = AStoreEngine(db, EngineOptions(use_cache=False))
        rounds, truths = 3, []
        answers, errors = {2: [], 3: []}, []
        round_done = threading.Barrier(3, timeout=60)
        write_done = threading.Barrier(3, timeout=60)

        def client(workers):
            try:
                with AStoreEngine(db, EngineOptions(
                        parallel_backend="process",
                        workers=workers)) as engine:
                    for _ in range(rounds):
                        answers[workers].append(
                            [engine.query(sql).rows() for sql in queries])
                        round_done.wait()
                        write_done.wait()
            except BaseException as exc:  # re-raised below
                errors.append(exc)
                round_done.abort()
                write_done.abort()

        clients = [threading.Thread(target=client, args=(workers,))
                   for workers in (2, 3)]
        truths.append([serial.query(sql).rows() for sql in queries])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for round_no in range(1, rounds + 1):
                round_done.wait()
                if round_no < rounds:
                    rows = np.arange(round_no, fact.num_rows, 5)
                    fact.update(rows, {"lo_revenue": np.full(len(rows),
                                                             round_no)})
                    truths.append([serial.query(sql).rows()
                                   for sql in queries])
                write_done.wait()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert not errors, errors
        assert truths[0] != truths[1] != truths[2]
        assert answers == {2: truths, 3: truths}


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


def strict_take(monkeypatch, db):
    """Record every gather given a non-writeable index array, which
    ``numpy.take`` — the function or the ``ndarray`` method — copies
    before gathering.  The method is caught on every column array of
    *db* and every view sliced from one.  (Recorded, not raised: a
    traceback through arena views must not be rendered after the
    test has let the image go.)"""
    take, copied = np.take, []

    def record(indices):
        if isinstance(indices, np.ndarray) and not indices.flags.writeable:
            copied.append(len(indices))

    def guarded(a, indices, *args, **kwargs):
        record(indices)
        return take(a, indices, *args, **kwargs)

    class StrictTake(np.ndarray):
        def take(self, indices, *args, **kwargs):
            record(indices)
            return super().take(indices, *args, **kwargs)

    for table in db.tables.values():
        for column in table.columns.values():
            for part in (column, getattr(column, "_codes", None),
                         getattr(column, "_addr", None)):
                if isinstance(part, FixedColumn):
                    monkeypatch.setattr(part, "_data",
                                        part._data.view(StrictTake))
    monkeypatch.setattr(np, "take", guarded)
    return copied


def spy_column_gathers(monkeypatch):
    """Record, per positional column gather, whether its positions
    were writeable."""
    writeable = []
    for cls, name in ((FixedColumn, "take"), (DictColumn, "take"),
                      (DictColumn, "take_codes"), (StringColumn, "take")):
        def spy(self, positions, _method=getattr(cls, name)):
            writeable.append(positions.flags.writeable)
            return _method(self, positions)

        monkeypatch.setattr(cls, name, spy)
    return writeable


def spy_run_shard(monkeypatch):
    """Record ``(plan, db, shard, selected)`` for every shard this
    process runs (spawned pool workers are not patched)."""
    ran = []
    run_shard = sharding.BoundQuery.run_shard

    def spy(self, db, shard, nshards, use_array):
        outcome = run_shard(self, db, shard, nshards, use_array)
        ran.append((self, db, shard, outcome.selected))
        return outcome

    monkeypatch.setattr(sharding.BoundQuery, "run_shard", spy)
    return ran


class TestImageAdoption:
    """The coordinator adopts the image it exported as its database's
    storage: one copy of the data per host, writes copy on first write."""

    SQL = ("SELECT d_year, sum(lo_revenue) AS r FROM lineorder, date "
           "GROUP BY d_year ORDER BY d_year")

    @staticmethod
    def reference(db, sql, snapshot=None):
        return AStoreEngine(db, EngineOptions(use_cache=False)).query(
            sql, snapshot=snapshot).rows()

    def test_first_query_adopts_the_image(self, tmp_path):
        # a fresh interpreter, so RssAnon sees only this database
        script = tmp_path / "adopt.py"
        script.write_text(
            "import gc, json\n"
            "import numpy as np\n"
            "from repro.datagen import generate_ssb\n"
            "from repro.engine import AStoreEngine, EngineOptions\n"
            "from tests.test_process_backend import table_buffers\n"
            "\n"
            "def rss_anon():\n"
            "    gc.collect()\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('RssAnon:'):\n"
            "            return int(line.split()[1]) * 1024\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    db = generate_ssb(sf=0.05, seed=1)\n"
            "    before = rss_anon()\n"
            "    with AStoreEngine(db, EngineOptions(\n"
            "            parallel_backend='process', workers=2)) as engine:\n"
            "        engine.query('SELECT count(*) AS n FROM lineorder')\n"
            "        image = engine._slot.backend._image.attached.db\n"
            "        mine = table_buffers(db, 'lineorder')\n"
            "        theirs = table_buffers(image, 'lineorder')\n"
            "        shared = sorted(k for k in mine\n"
            "                        if np.shares_memory(mine[k], theirs[k]))\n"
            "        print(json.dumps({'buffers': sorted(mine),\n"
            "                          'shared': shared,\n"
            "                          'freed': before - rss_anon(),\n"
            "                          'nbytes': db.nbytes}))\n")
        out = subprocess.run([sys.executable, str(script)], env=python_env(),
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["shared"] == report["buffers"]
        assert "$deleted" in report["shared"]
        assert report["freed"] >= 0.8 * report["nbytes"], report

    def test_update_copies_only_the_updated_column(self):
        db = generate_ssb(sf=0.005, seed=3)
        fact = db.table("lineorder")
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2)) as engine:
            assert engine.query(self.SQL).rows() == self.reference(
                db, self.SQL)
            backend = engine._slot.backend
            image, inode = backend._image.attached.db, image_of(backend.arena)
            assert all(not array.flags.writeable
                       for array in table_buffers(db, "lineorder").values())
            fact.update(np.arange(0, fact.num_rows, 7),
                        {"lo_revenue": np.full(
                            len(range(0, fact.num_rows, 7)), 10 ** 6)})
            mine = table_buffers(db, "lineorder")
            theirs = table_buffers(image, "lineorder")
            assert mine["lo_revenue"].flags.writeable
            assert not np.shares_memory(mine["lo_revenue"],
                                        theirs["lo_revenue"])
            assert all(np.shares_memory(mine[k], theirs[k])
                       for k in mine if k != "lo_revenue")
            # the next process query re-exports, adopts the new image,
            # and the old one goes: nothing pins it
            del image, theirs, mine
            assert engine.query(self.SQL).rows() == self.reference(
                db, self.SQL)
            assert image_of(backend.arena) != inode
            assert inode not in open_images()
            assert adopted_images(db) == {image_of(backend.arena)}

    def test_mvcc_delete_copies_the_bookkeeping_vectors(self):
        db = build_tiny_star(mvcc=True)
        fact = db.table("lineorder")
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2)) as engine:
            assert engine.query(self.SQL).rows() == self.reference(
                db, self.SQL)
            image = engine._slot.backend._image.attached.db.table(
                "lineorder")
            fact.delete([0, 5], version=5)
            assert fact._deleted.flags.writeable
            assert fact._delete_version.flags.writeable
            assert not np.shares_memory(fact._deleted, image._deleted)
            assert not np.shares_memory(fact._delete_version,
                                        image._delete_version)
            assert np.shares_memory(fact._insert_version,
                                    image._insert_version)
            assert not image._deleted.any()
            assert (image._delete_version == np.iinfo(np.int64).max).all()
            for snapshot in (4, 5, None):
                assert (engine.query(self.SQL, snapshot=snapshot).rows()
                        == self.reference(db, self.SQL, snapshot))

    def test_write_during_a_run_misses_its_shard_zero(self, monkeypatch):
        db = build_tiny_star()
        before = self.reference(db, self.SQL)
        lead = sharding.ProcessShardBackend._lead
        fact = db.table("lineorder")
        armed = []

        def write_then_lead(self, *args):
            # the run has started: shard 1 is submitted, shard 0 not
            # yet read; a write now must copy, not reach the image
            if armed:
                fact.update(np.arange(fact.num_rows),
                            {"lo_revenue": np.full(fact.num_rows, 10 ** 6)})
                armed.clear()
            return lead(self, *args)

        monkeypatch.setattr(sharding.ProcessShardBackend, "_lead",
                            write_then_lead)
        with AStoreEngine(db, EngineOptions(parallel_backend="process",
                                            workers=2,
                                            use_cache=False)) as engine:
            engine.query("SELECT count(*) AS n FROM lineorder")  # adopt
            armed.append(True)
            assert engine.query(self.SQL).rows() == before
            assert not armed
            after = engine.query(self.SQL).rows()
            assert after != before
            assert after == self.reference(db, self.SQL)

    def test_writer_racing_exports_loses_no_write(self, monkeypatch):
        # widen the fact table's check-to-swap window, so a write that
        # the table lock did not hold off would land in a dropped buffer
        share = FixedColumn.share

        def slow_share(self, image):
            if self.name.startswith("lo_"):
                time.sleep(0.001)
            share(self, image)

        monkeypatch.setattr(FixedColumn, "share", slow_share)
        adopt, adopted = Table.adopt, []

        def spy_adopt(self, image, expected_count):
            done = adopt(self, image, expected_count)
            if self.name == "lineorder":
                adopted.append(done)
            return done

        monkeypatch.setattr(Table, "adopt", spy_adopt)
        db = generate_ssb(sf=0.002, seed=5)
        replay = generate_ssb(sf=0.002, seed=5)
        fact = db.table("lineorder")
        rng = np.random.default_rng(5)
        log = [(rng.choice(fact.num_rows, 50, replace=False),
                rng.integers(0, 10 ** 6, 50), rng.uniform(0, 0.03))
               for _ in range(40)]
        done = threading.Event()

        def writer():
            # bursts with pauses: some exports see no write and adopt
            for positions, values, pause in log:
                fact.update(positions, {"lo_revenue": values})
                time.sleep(pause)
            done.set()

        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            loops, deadline = 0, time.monotonic() + 60
            # no worker is involved: each loop after a write is one
            # export, attach and adoption racing the writer (a loop at an
            # unchanged stamp returns the database's image and adopts
            # nothing)
            backend = sharding.backend_for(db)
            while ((not done.is_set() or loops < 3)
                   and time.monotonic() < deadline):
                backend.image(db)
                loops += 1
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and done.is_set()
        # not vacuous: the writer raced several exports (one adoption
        # attempt each), and some met a pause in the writes and adopted
        assert len(adopted) >= 3
        assert True in adopted
        for positions, values, _ in log:
            replay.table("lineorder").update(positions,
                                             {"lo_revenue": values})
        for name in fact.column_names:
            assert np.array_equal(fact[name].values(),
                                  replay.table("lineorder")[name].values())


class TestReadOnlyProbes:
    def test_probe_of_read_only_positions_matches(self):
        rng = np.random.default_rng(5)
        pf = PredicateFilter(rng.random(500) < 0.3)
        positions = rng.integers(0, 500, 4000)
        view = positions.view()
        view.flags.writeable = False
        assert np.array_equal(pf.probe(view), pf.probe(positions))
        assert np.array_equal(pf.probe(view), pf.mask[positions])

    @pytest.mark.parametrize("variant, sql, reader", [
        ("AIRScan_C_P_G", SSB_QUERIES["Q3.1"], "probe"),
        ("AIRScan_C_P_G", SSB_QUERIES["Q2.1"], "probe"),
        # predicate mode: dimension predicates fetch their columns at
        # the FK band instead of probing a predicate vector
        ("AIRScan_C", SSB_QUERIES["Q3.1"], "column"),
        ("AIRScan_R", SSB_QUERIES["Q2.1"], "column"),
        # projections gather dimension columns at owned positions
        ("AIRScan_C_P_G",
         "SELECT lo_orderkey, c_nation, d_year FROM lineorder, customer, "
         "date ORDER BY lo_orderkey LIMIT 100", "owned"),
    ], ids=["C_P_G-Q3.1", "C_P_G-Q2.1", "C-Q3.1", "R-Q2.1",
            "C_P_G-projection"])
    def test_shards_over_the_arena_gather_without_copies(
            self, ssb_air, monkeypatch, variant, sql, reader):
        serial = AStoreEngine.variant(ssb_air, variant,
                                      use_cache=False).query(sql).rows()
        probed = []
        probe = PredicateFilter.probe

        def spy_probe(self, positions):
            probed.append(positions.flags.writeable)
            return probe(self, positions)

        with ColumnArena.export(ssb_air) as arena, \
                attach_database(arena.manifest) as attached:
            db = attached.db
            ran = spy_run_shard(monkeypatch)
            copied = strict_take(monkeypatch, db)
            gathered = spy_column_gathers(monkeypatch)
            monkeypatch.setattr(PredicateFilter, "probe", spy_probe)
            # one process shard runs in the calling thread over the
            # read-only arena views; unpruned, its first dimension read
            # takes the FK column band itself as positions, which
            # np.take would copy
            with AStoreEngine.variant(
                    db, variant, parallel_backend="process",
                    workers=1, use_pruning=False,
                    use_cache=False) as engine:
                rows = engine.query(sql).rows()
            monkeypatch.undo()
        assert [(ran_db, shard) for _, ran_db, shard, _ in ran] == [(db, 0)]
        if reader == "probe":
            assert probed[0] is False
        elif reader == "column":
            assert False in gathered
        else:
            assert gathered and all(gathered)
        assert copied == []
        assert rows == serial


class TestLeaderParticipation:
    def test_coordinator_runs_shard_zero_over_its_attachment(
            self, ssb_air, monkeypatch):
        sql = SSB_QUERIES["Q2.1"]
        serial = AStoreEngine(ssb_air).query(sql).rows()
        ran = spy_run_shard(monkeypatch)
        with AStoreEngine(ssb_air, EngineOptions(
                parallel_backend="process", workers=2)) as engine:
            backend = sharding.backend_for(ssb_air)
            before = backend.traffic()
            result = engine.query(sql)
            assert result.rows() == serial
            assert len(backend.worker_pids()) == 1
            # one task, and its resend if the worker missed the plan or
            # the image
            after = backend.traffic()
            assert (after["tasks"] - before["tasks"]
                    == 1 + after["plan_misses"] - before["plan_misses"])
            # shard 0 ran here, over the coordinator's own attachment and
            # its own plan copy (the cached plan is never hydrated)
            [(plan, db, shard, selected)] = ran
            assert db is backend._image.attached.db and shard == 0
            assert plan is not engine.compile(sql)
            assert 0 < selected < result.stats.rows_selected

    def test_one_worker_exports_no_arena_and_starts_no_pool(
            self, tiny_star):
        sql = ("SELECT d_year, count(*) AS n FROM lineorder, date "
               "GROUP BY d_year ORDER BY d_year")
        segments = ColumnArena.live_segments()
        # by pid, not by count: an earlier test's pool may be reaped
        # while this one runs
        children = {child.pid for child in multiprocessing.active_children()}
        with AStoreEngine(tiny_star, EngineOptions(
                parallel_backend="process", workers=1)) as engine:
            assert (engine.query(sql).rows()
                    == AStoreEngine(tiny_star).query(sql).rows())
            assert engine._slot.backend is None
        assert ColumnArena.live_segments() == segments
        assert {child.pid for child in multiprocessing.active_children()
                } <= children

    def test_backend_needs_two_shards(self, tiny_star):
        segments = ColumnArena.live_segments()
        plan = AStoreEngine(tiny_star).compile(
            "SELECT count(*) AS n FROM lineorder")
        with pytest.raises(ValueError, match="two or more"):
            sharding.ProcessShardBackend().run(tiny_star, plan, 1)
        assert ColumnArena.live_segments() == segments

    def test_close_during_a_running_coordinator_shard_is_safe(
            self, tiny_star, monkeypatch):
        sql = "SELECT d_year, count(*) AS n FROM lineorder, date GROUP BY d_year"
        plan = AStoreEngine(tiny_star).compile(sql)
        truth = plan.run_shard(tiny_star, 0, 2, None)
        backend = sharding.backend_for(tiny_star)
        started, closed, events = threading.Event(), threading.Event(), []
        run_shard = sharding.BoundQuery.run_shard

        def slow(self, db, shard, nshards, use_array):
            started.set()
            assert closed.wait(30)
            # the backend is closed: shard 0 still reads its views
            outcome = run_shard(self, db, shard, nshards, use_array)
            events.append(outcome)
            return outcome

        monkeypatch.setattr(sharding.BoundQuery, "run_shard", slow)
        errors = []

        def query():
            try:
                backend.run(tiny_star, plan, 2)
            except ExecutionError as exc:  # its pool shard was cancelled
                errors.append(exc)

        runner = threading.Thread(target=query)
        runner.start()
        assert started.wait(30)
        arena = backend.arena
        backend.close()  # does not wait for shard 0
        backend.close()  # idempotent
        # the backend let go of the image and its workers; the run
        # still holds the image
        assert backend.arena is None and backend.worker_pids() == frozenset()
        assert not arena.closed
        closed.set()
        runner.join(30)
        assert not runner.is_alive()
        [outcome] = events
        assert outcome.selected == truth.selected
        assert (pickle.dumps(outcome.finishes)
                == pickle.dumps(truth.finishes))
        # the run returned (an error's traceback held its frame): nothing
        # holds the image any more
        errors.clear()
        gc.collect()
        assert arena.closed


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
        monkeypatch.setattr(sharding, "_ATTACHED_SEQ", 0)
        monkeypatch.setattr(sharding, "_PLANS", OrderedDict())
        monkeypatch.setattr(sharding, "WORKER_PLAN_CAPACITY", 2)
        engine = AStoreEngine(tiny_star)
        blobs = [pickle.dumps(engine.compile(
            f"SELECT d_year, count(*) AS n FROM lineorder, date "
            f"WHERE lo_discount = {discount} GROUP BY d_year"))
            for discount in (1, 2, 3)]

        def run(seq, ship=False):
            return sharding._worker_run(sharding.ShardTask(
                seq, 0, 0, 1, None, blobs[seq] if ship else None))

        assert run(0) == sharding.PlanMiss(0)
        shipped = run(0, ship=True)
        assert isinstance(shipped, ShardOutcome)
        assert run(0).selected == shipped.selected
        run(1, ship=True)
        run(2, ship=True)  # over capacity: plan 0 is least recently used
        assert list(sharding._PLANS) == [1, 2]
        assert run(0) == sharding.PlanMiss(0)
        assert isinstance(run(1), ShardOutcome)

    def test_worker_attaches_the_image_a_task_names(self, tiny_star,
                                                    monkeypatch):
        # a task naming an image the worker does not hold misses, with
        # the plan bytes or without; its resend carries the manifest
        monkeypatch.setattr(sharding, "_ATTACHED", None)
        monkeypatch.setattr(sharding, "_ATTACHED_SEQ", None)
        monkeypatch.setattr(sharding, "_PLANS", OrderedDict())
        plan = pickle.dumps(AStoreEngine(tiny_star).compile(
            "SELECT d_year, count(*) AS n FROM lineorder, date "
            "GROUP BY d_year"))
        with ColumnArena.export(tiny_star) as first, \
                ColumnArena.export(tiny_star) as second:
            manifests = [pickle.dumps(arena.manifest)
                         for arena in (first, second)]

            def run(image, resend=False):
                return sharding._worker_run(sharding.ShardTask(
                    7, image, 0, 1, None, plan,
                    manifests[image] if resend else None))

            assert run(0) == sharding.PlanMiss(7)
            held = run(0, resend=True)
            assert isinstance(held, ShardOutcome)
            assert run(0).selected == held.selected
            assert run(1) == sharding.PlanMiss(7)
            assert run(1, resend=True).selected == held.selected
            assert sharding._ATTACHED_SEQ == 1
            monkeypatch.undo()

    def test_warm_flight_sends_only_references(self, ssb_air):
        flight = list(SSB_QUERIES.values())
        # two shards: the coordinator runs shard 0, so one task per query
        # (counted as deltas: the backend is shared with process_engine)
        with AStoreEngine(ssb_air, EngineOptions(
                parallel_backend="process", workers=2)) as engine:
            first = [engine.query(sql).rows() for sql in flight]
            backend = engine._slot.backend
            warm = backend.traffic()
            assert [engine.query(sql).rows() for sql in flight] == first
            after = backend.traffic()
            tasks = after["tasks"] - warm["tasks"]
            assert tasks == len(flight)
            assert after["plan_ships"] == warm["plan_ships"]
            assert after["plan_misses"] == warm["plan_misses"]
            assert after["task_bytes"] - warm["task_bytes"] < 1024 * tasks
            # a worker that lost its plans answers PlanMiss, and the
            # shard is resent once with the plan bytes
            backend._pool.submit(
                exec, "import repro.engine.sharding as s; s._PLANS.clear()",
                {}).result()
            assert engine.query(flight[0]).rows() == first[0]
            final = backend.traffic()
            assert final["plan_misses"] == after["plan_misses"] + 1
            assert final["plan_ships"] == after["plan_ships"] + 1

    def test_concurrent_runs_count_every_task(self, process_engine):
        flight = [SSB_QUERIES[q] for q in ("Q1.1", "Q2.1", "Q3.1", "Q4.1")]
        # compiled, cached and shipped once
        expected = {sql: process_engine.query(sql).rows() for sql in flight}
        backend = process_engine._slot.backend
        before = backend.traffic()
        errors, wrong = [], []

        def client():
            try:
                for sql in flight * 2:
                    # concurrent runs share the coordinator's plan copies
                    if process_engine.query(sql).rows() != expected[sql]:
                        wrong.append(sql)
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
        assert not wrong
        after = backend.traffic()
        misses = after["plan_misses"] - before["plan_misses"]
        # nshards - 1 tasks per run (the coordinator runs shard 0), plus
        # one resend per miss; nothing lost
        nshards = process_engine.options.workers
        assert (after["tasks"] - before["tasks"]
                == (nshards - 1) * len(clients) * len(flight) * 2 + misses)
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


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX SIGKILL")
class TestProcessPoolDeath:
    SQL = ("SELECT d_year, sum(lo_revenue) AS revenue "
           "FROM lineorder, date GROUP BY d_year")

    def test_worker_sigkill_degrades_to_serial(self, ssb_air):
        names = dev_shm_names()
        with AStoreEngine(ssb_air, EngineOptions(
                parallel_backend="process", workers=2,
                use_cache=False)) as engine:
            with AStoreEngine(ssb_air, EngineOptions(
                    parallel_backend="serial", use_cache=False)) as serial:
                truth = serial.query(self.SQL).rows()
            first = engine.query(self.SQL)
            assert first.rows() == truth
            assert first.stats.shard_fallbacks == 0
            # SIGKILL the one pool worker (the coordinator runs shard 0
            # itself): the next sharded run must surface as a typed
            # fallback, not a hang or a raw BrokenProcessPool
            pool = engine._slot.backend._pool
            assert len(pool._processes) == 1
            victim = next(iter(pool._processes))
            os.kill(victim, signal.SIGKILL)
            # the pool notices the death asynchronously; a shard run fast
            # enough to finish on the survivor first would degrade one
            # query later, so wait until the pool knows it is broken
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            degraded = engine.query(self.SQL)
            assert degraded.rows() == truth
            assert degraded.stats.shard_fallbacks == 1
            # the broken backend was evicted: the next query runs on a
            # fresh pool, cleanly
            recovered = engine.query(self.SQL)
            assert recovered.rows() == truth
            assert recovered.stats.shard_fallbacks == 0
        # the fresh backend reused the database's image: a dead pool
        # leaves the image intact, and the only images held are the one
        # ssb_air owns and those it adopted as its storage (no other
        # session database runs on process shards)
        assert open_images() <= ({os.stat(path).st_ino for path in
                                  owned_images(ssb_air)}
                                 | adopted_images(ssb_air))
        assert dev_shm_names() == names
