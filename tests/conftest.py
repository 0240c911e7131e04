"""Shared fixtures: small seeded SSB/TPC-H databases and a tiny star
schema, plus guards against leaked workers and images, per module and at
the end of the session."""

import gc
import os
import time

import pytest

from repro.core import ColumnArena, Database
from repro.datagen import generate_ssb, generate_tpch
from repro.engine.sharding import database_image, shard_backend

#: The session-scoped databases built so far: each may own one exported
#: image and one shard worker pool (a process engine's) until the
#: session ends.  Process engines over them run at two shards, so each
#: pool holds one worker (``test_worker_sigkill_degrades_to_serial``
#: counts it); a test that needs another shard count builds its own
#: database.
SESSION_DATABASES = []


def live_children():
    """Live (non-zombie) child processes of this one, other than
    multiprocessing's resource tracker, which lives until exit."""
    pid = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                state, ppid = stat.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                tracker = b"resource_tracker" in cmdline.read()
        except OSError:
            continue  # exited while we looked
        if ppid == pid and state != "Z" and not tracker:
            found.append(int(entry))
    return found


def owned_images(*dbs):
    """The paths of the images *dbs* own (one each, at most)."""
    arenas = (database_image(db) for db in dbs)
    return {arena.manifest.path for arena in arenas if arena is not None}


def owned_workers(*dbs):
    """The pids of the shard workers *dbs* own."""
    backends = (shard_backend(db) for db in dbs)
    return {pid for backend in backends if backend is not None
            for pid in backend.worker_pids()}


def leaked_since(images, owners):
    """Child processes and exported images alive now that no database
    in *owners* owns, images open before (*images*) aside.  A database
    owns its workers and its image until it is collected, so garbage is
    collected first."""
    gc.collect()
    deadline = time.monotonic() + 2.0
    while (set(live_children()) - owned_workers(*owners)
           and time.monotonic() < deadline):
        time.sleep(0.05)  # a terminated worker may take a moment to go
    leaked = [f"child process {pid}" for pid in
              sorted(set(live_children()) - owned_workers(*owners))]
    leaked += [f"image {path}" for path in
               sorted(set(ColumnArena.live_segments()) - set(images)
                      - owned_images(*owners))]
    return leaked


@pytest.fixture(scope="module", autouse=True)
def no_leaks():
    """Fail a module that leaves a child process running, or an exported
    image open, that no session database owns, once its own fixtures
    are torn down."""
    images = ColumnArena.live_segments()
    yield
    leaked = leaked_since(images, SESSION_DATABASES)
    if leaked:
        pytest.fail("leaked: " + ", ".join(leaked))


def pytest_sessionfinish(session):
    """Fail the session if a child process or an exported image survives
    the session databases: once they are released and garbage is
    collected, their workers and images must be gone."""
    SESSION_DATABASES.clear()
    leaked = leaked_since((), ())
    if leaked:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_sep("=", "leaked at session end: "
                               + ", ".join(leaked), red=True)


def session_database(db: Database) -> Database:
    SESSION_DATABASES.append(db)
    return db


@pytest.fixture(scope="session")
def ssb_air():
    """A small AIR-loaded SSB database."""
    return session_database(generate_ssb(sf=0.01, seed=11))


@pytest.fixture(scope="session")
def ssb_raw():
    """The same SSB data with key-valued FKs (for the baselines)."""
    return session_database(generate_ssb(sf=0.01, seed=11, airify=False))


@pytest.fixture(scope="session")
def tpch_air():
    return session_database(generate_tpch(sf=0.004, seed=11))


def build_tiny_star(mvcc: bool = False) -> Database:
    """A fully hand-checkable star schema.

    lineorder(8 rows) -> date(3), customer(4); every aggregate below is
    verifiable by hand.
    """
    db = Database("tiny")
    db.create_table("date", {
        "d_datekey": [19970101, 19970102, 19980101],
        "d_year": [1997, 1997, 1998],
        "d_month": ["Jan", "Jan", "Jan"],
    }, dict_threshold=1.0, mvcc=mvcc)
    db.create_table("customer", {
        "c_custkey": [1, 2, 3, 4],
        "c_region": ["ASIA", "ASIA", "EUROPE", "AMERICA"],
        "c_nation": ["CHINA", "JAPAN", "FRANCE", "BRAZIL"],
    }, dict_threshold=1.0, mvcc=mvcc)
    db.create_table("lineorder", {
        "lo_orderkey": [1, 2, 3, 4, 5, 6, 7, 8],
        "lo_custkey": [1, 2, 3, 4, 1, 2, 3, 4],
        "lo_orderdate": [19970101, 19970101, 19970102, 19970102,
                         19980101, 19980101, 19970101, 19980101],
        "lo_revenue": [10, 20, 30, 40, 50, 60, 70, 80],
        "lo_discount": [1, 2, 3, 4, 1, 2, 3, 4],
        "lo_quantity": [5, 10, 15, 20, 25, 30, 35, 40],
    }, mvcc=mvcc)
    db.add_reference("lineorder", "lo_custkey", "customer", "c_custkey")
    db.add_reference("lineorder", "lo_orderdate", "date", "d_datekey")
    db.airify()
    return db


@pytest.fixture
def tiny_star():
    return build_tiny_star()


@pytest.fixture
def tiny_star_mvcc():
    return build_tiny_star(mvcc=True)


def build_tiny_snowflake() -> Database:
    """lineitem -> orders -> customer -> nation -> region, hand-checkable."""
    db = Database("snow")
    db.create_table("region", {
        "r_regionkey": [0, 1], "r_name": ["ASIA", "EUROPE"]}, dict_threshold=1.0)
    db.create_table("nation", {
        "n_nationkey": [0, 1, 2],
        "n_name": ["CHINA", "FRANCE", "JAPAN"],
        "n_regionkey": [0, 1, 0]}, dict_threshold=1.0)
    db.create_table("customer", {
        "c_custkey": [7, 8, 9], "c_nationkey": [0, 1, 2]})
    db.create_table("orders", {
        "o_orderkey": [70, 71, 72, 73],
        "o_custkey": [7, 8, 9, 7],
        "o_price": [100, 900, 850, 500]})
    db.create_table("lineitem", {
        "l_orderkey": [70, 70, 71, 72, 73, 73],
        "l_extendedprice": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        "l_discount": [0.0, 0.5, 0.1, 0.0, 0.2, 0.5]})
    db.add_reference("nation", "n_regionkey", "region", "r_regionkey")
    db.add_reference("customer", "c_nationkey", "nation", "n_nationkey")
    db.add_reference("orders", "o_custkey", "customer", "c_custkey")
    db.add_reference("lineitem", "l_orderkey", "orders", "o_orderkey")
    db.airify()
    return db


@pytest.fixture
def tiny_snowflake():
    return build_tiny_snowflake()
