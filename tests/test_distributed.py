"""Fault-tolerant distributed scatter-gather: the chaos matrix.

Contracts, each over *real* spawned shard-node processes (or the real
process pool / serve loop for the satellite paths):

* **differential** — a 2-node coordinator answers all 13 SSB queries
  byte-identically to a serial no-cache ground truth (JSON
  round-tripped, i.e. exactly what a client sees), with zero recovery
  counters and a clean node shutdown;
* **node loss** — a node SIGKILLed mid-flight (for determinism: a
  ``kill@node.request`` chaos rule, which dies *holding a request*) is
  retried, declared lost, and its shards re-scatter to survivors — the
  flight still returns the serial answer and ``ExecutionStats`` records
  the retries / re-shards / losses;
* **deadline** — a node delayed past ``node_timeout`` is
  indistinguishable from a dead one: retries, loss, re-shard;
* **flaky transport** — a dropped connection or a corrupted response
  frame costs one retry on the same node, not a node loss;
* **stamp fencing** — after a coordinator-side mutation, nodes holding
  pre-mutation copies *refuse* their shards (stamp lane) and the
  coordinator degrades them to local execution: the answer reflects the
  mutation, never the stale copy;
* **pool death** (satellite) — a SIGKILLed process-pool worker surfaces
  as a typed :class:`ShardExecutionError`, the engine degrades that
  query to serial shards (``shard_fallbacks``), and the next query gets
  a fresh pool;
* **serve deadline** (satellite) — a request past its ``timeout_ms``
  answers a structured ``{"timeout": true}`` error;
* **respawn backoff** (satellite) — a crash-looping fleet worker is
  respawned with exponentially growing, logged backoff.

Every fault is armed through :mod:`repro.engine.chaos`, so each
recovery path reproduces deterministically.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.engine.chaos import (
    ChaosController,
    ChaosDrop,
    ChaosError,
    clear_chaos,
    format_rules,
    install_chaos,
    parse_rules,
)
from repro.engine.distributed import LocalNodes, RemoteShardBackend
from repro.engine.executor import AStoreEngine, EngineOptions
from repro.engine.sharding import database_stamp
from repro.errors import ExecutionError
from repro.io import load_database, save_database
from repro.workloads import SSB_QUERIES

from .conftest import build_tiny_star

pytestmark = pytest.mark.skipif(
    os.name != "posix",
    reason="shard nodes are spawned POSIX processes")

SQL_YEAR = ("SELECT d_year, sum(lo_revenue) AS revenue "
            "FROM lineorder, date GROUP BY d_year")


@pytest.fixture(scope="module")
def ssb_path(tmp_path_factory, ssb_air):
    """The session SSB database saved to an archive every shard node
    (and the coordinator) loads its own copy from — identical mutation
    stamps all around."""
    path = str(tmp_path_factory.mktemp("dist") / "ssb.npz")
    save_database(ssb_air, path)
    return path


@pytest.fixture(scope="module")
def ssb_db(ssb_path):
    return load_database(ssb_path)


@pytest.fixture(scope="module")
def ssb_truth(ssb_db):
    with AStoreEngine(ssb_db, EngineOptions(parallel_backend="serial",
                                            use_cache=False)) as serial:
        return {qid: client_rows(serial.query(sql))
                for qid, sql in SSB_QUERIES.items()}


@pytest.fixture(autouse=True)
def _disarm_chaos():
    yield
    clear_chaos()
    os.environ.pop("ASTORE_CHAOS", None)


def client_rows(result):
    """Rows as a client would see them (JSON round-tripped)."""
    return json.loads(json.dumps(
        [[str(value) for value in row] for row in result.rows()]))


def remote_engine(db, nodes, **overrides):
    overrides.setdefault("node_timeout", 15.0)
    return AStoreEngine(db, EngineOptions(
        parallel_backend="remote", remote_nodes=nodes.addresses,
        use_cache=False, **overrides))


class TestChaosRules:
    def test_parse_format_round_trip(self):
        spec = "kill@node.request:3;delay@node.run:1x0=0.4;drop@node.response"
        rules = parse_rules(spec)
        assert [r.action for r in rules] == ["kill", "delay", "drop"]
        assert rules[0].first == 3 and rules[0].count == 1
        assert rules[1].count == 0 and rules[1].value == 0.4
        assert parse_rules(format_rules(rules)) == rules

    @pytest.mark.parametrize("bad", ["explode@x", "kill@", "kill", "@site"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_rules(bad)

    def test_rules_fire_on_exact_hits(self):
        controller = ChaosController(parse_rules("drop@node.request:2"))
        controller.fire("node.request")  # hit 1: not due
        with pytest.raises(ChaosDrop):
            controller.fire("node.request")  # hit 2: due
        controller.fire("node.request")  # hit 3: spent
        assert controller.fired == [("node.request", "drop", 2)]

    def test_unbounded_error_rule(self):
        controller = ChaosController(parse_rules("error@node.run:1x0"))
        for _ in range(3):
            with pytest.raises(ChaosError):
                controller.fire("node.run")

    def test_corrupt_flips_payload_bytes(self):
        controller = ChaosController(parse_rules("corrupt@node.response"))
        garbled = controller.fire("node.response", b"pickle-bytes")
        assert garbled != b"pickle-bytes" and len(garbled) == 12
        assert controller.fire("node.response", b"pickle-bytes") == b"pickle-bytes"

    def test_delay_uses_injected_sleeper(self):
        controller = ChaosController(parse_rules("delay@serve.request=0.25"))
        slept = []
        controller.fire("serve.request", sleeper=slept.append)
        assert slept == [0.25]


class TestStampLane:
    def test_admits_exactly_current_stamps(self, tiny_star):
        from repro.core.shmcache import StampLane

        lane = StampLane()
        stamps = database_stamp(tiny_star)
        assert lane.admits(stamps, tiny_star)
        # a published count ahead of the local copy fences it off
        lane.publish((("lineorder", 99),))
        assert lane.published_count("lineorder") == 99
        assert not lane.admits(stamps, tiny_star)
        # stamps that disagree with the local data are refused outright
        wrong = tuple((name, count + 1) for name, count in stamps)
        assert not StampLane().admits(wrong, tiny_star)


class TestHealthyFlight:
    def test_differential_and_clean_shutdown(self, ssb_path, ssb_db,
                                             ssb_truth):
        before = set(os.listdir("/dev/shm")) if os.path.isdir(
            "/dev/shm") else set()
        with LocalNodes(ssb_path, count=2) as nodes:
            with remote_engine(ssb_db, nodes) as engine:
                for qid, sql in SSB_QUERIES.items():
                    result = engine.query(sql)
                    assert client_rows(result) == ssb_truth[qid], qid
                    stats = result.stats
                    assert (stats.remote_retries, stats.remote_reshards,
                            stats.remote_nodes_lost,
                            stats.remote_local_shards) == (0, 0, 0, 0), qid
            assert nodes.shutdown()
            pids = [node.pid for node in nodes.nodes]
        for pid in pids:  # no orphaned node processes
            with pytest.raises(OSError):
                os.kill(pid, 0)
        if os.path.isdir("/dev/shm"):  # remote sharding never touches shm
            leaked = {name for name in set(os.listdir("/dev/shm")) - before
                      if name.startswith(("psm_", "astore"))}
            assert not leaked

    def test_empty_node_list_is_a_typed_error(self, ssb_db):
        with pytest.raises(ExecutionError, match="node addresses"):
            with AStoreEngine(ssb_db, EngineOptions(
                    parallel_backend="remote", use_cache=False)) as engine:
                engine.query(SQL_YEAR)

    def test_bad_address_is_a_typed_error(self, ssb_db):
        with pytest.raises(ExecutionError, match="host:port"):
            RemoteShardBackend(ssb_db, ["nonsense"])


class TestNodeLoss:
    def test_sigkill_mid_flight_reshards_to_survivor(self, ssb_path, ssb_db,
                                                     ssb_truth):
        qids = list(SSB_QUERIES)
        with LocalNodes(ssb_path, count=2) as nodes:
            with remote_engine(ssb_db, nodes) as engine:
                lost = reshards = retries = 0
                for position, qid in enumerate(qids):
                    if position == len(qids) // 2:
                        nodes.kill(0)
                    result = engine.query(SSB_QUERIES[qid])
                    assert client_rows(result) == ssb_truth[qid], qid
                    lost += result.stats.remote_nodes_lost
                    reshards += result.stats.remote_reshards
                    retries += result.stats.remote_retries
                assert lost == 1 and reshards >= 1 and retries >= 1
            assert nodes.shutdown()  # the survivor drains cleanly

    def test_chaos_kill_dies_holding_a_request(self, ssb_path, ssb_db):
        # node 0 exits with 137 on its first request — after reading a
        # shard request, before answering: death mid-query, not at a
        # connection boundary
        with LocalNodes(ssb_path, count=2,
                        chaos=["kill@node.request"]) as nodes:
            with remote_engine(ssb_db, nodes) as engine:
                result = engine.query(SQL_YEAR)
                assert result.stats.remote_nodes_lost == 1
                assert result.stats.remote_reshards >= 1
                # the answer is still exact
                with AStoreEngine(ssb_db, EngineOptions(
                        parallel_backend="serial",
                        use_cache=False)) as serial:
                    assert client_rows(result) == client_rows(
                        serial.query(SQL_YEAR))
            assert nodes.nodes[0].process.exitcode == 137

    def test_delay_past_deadline_counts_as_loss(self, ssb_path, ssb_db):
        # every execution on node 0 stalls 0.6 s against a 0.15 s
        # deadline: retries fire (with backoff), then the node is lost
        # and its shards re-scatter
        with LocalNodes(ssb_path, count=2,
                        chaos=["delay@node.run:1x0=0.6"]) as nodes:
            with remote_engine(ssb_db, nodes, node_timeout=0.15,
                               node_retries=1) as engine:
                result = engine.query(SQL_YEAR)
                stats = result.stats
                assert stats.remote_retries >= 1
                assert stats.remote_nodes_lost == 1
                assert stats.remote_reshards >= 1
                with AStoreEngine(ssb_db, EngineOptions(
                        parallel_backend="serial",
                        use_cache=False)) as serial:
                    assert client_rows(result) == client_rows(
                        serial.query(SQL_YEAR))
            assert nodes.shutdown()

    def test_dropped_response_is_one_retry_not_a_loss(self, ssb_path,
                                                      ssb_db, ssb_truth):
        with LocalNodes(ssb_path, count=2,
                        chaos=["drop@node.response:2"]) as nodes:
            with remote_engine(ssb_db, nodes) as engine:
                flight_retries = 0
                for qid, sql in SSB_QUERIES.items():
                    result = engine.query(sql)
                    assert client_rows(result) == ssb_truth[qid], qid
                    assert result.stats.remote_nodes_lost == 0, qid
                    flight_retries += result.stats.remote_retries
                assert flight_retries == 1
            assert nodes.shutdown()

    def test_corrupted_response_is_one_retry_not_a_loss(self, ssb_path,
                                                        ssb_db, ssb_truth):
        with LocalNodes(ssb_path, count=2,
                        chaos=["corrupt@node.response:2"]) as nodes:
            with remote_engine(ssb_db, nodes) as engine:
                flight_retries = 0
                for qid, sql in SSB_QUERIES.items():
                    result = engine.query(sql)
                    assert client_rows(result) == ssb_truth[qid], qid
                    assert result.stats.remote_nodes_lost == 0, qid
                    flight_retries += result.stats.remote_retries
                assert flight_retries == 1
            assert nodes.shutdown()

    def test_all_nodes_lost_degrades_to_local(self, ssb_path, ssb_db,
                                              ssb_truth):
        with LocalNodes(ssb_path, count=1) as nodes:
            with remote_engine(ssb_db, nodes) as engine:
                nodes.kill(0)
                result = engine.query(SQL_YEAR)
                stats = result.stats
                assert stats.remote_nodes_lost == 1
                assert stats.remote_local_shards >= 1
                with AStoreEngine(ssb_db, EngineOptions(
                        parallel_backend="serial",
                        use_cache=False)) as serial:
                    assert client_rows(result) == client_rows(
                        serial.query(SQL_YEAR))


class TestStampFencing:
    def test_mutation_fences_stale_nodes(self, tmp_path):
        db = build_tiny_star()
        path = str(tmp_path / "tiny.npz")
        save_database(db, path)
        coordinator_db = load_database(path)
        with LocalNodes(path, count=2) as nodes:
            with remote_engine(coordinator_db, nodes) as engine:
                pre = engine.query(SQL_YEAR)
                assert pre.stats.remote_local_shards == 0
                # mutate the coordinator's copy only: every node now
                # holds pre-mutation data and must refuse its shards
                coordinator_db.table("lineorder").update(
                    [0], {"lo_revenue": [10_000]})
                post = engine.query(SQL_YEAR)
                assert post.stats.remote_local_shards >= 1
                with AStoreEngine(coordinator_db, EngineOptions(
                        parallel_backend="serial",
                        use_cache=False)) as serial:
                    assert client_rows(post) == client_rows(
                        serial.query(SQL_YEAR))
                assert client_rows(post) != client_rows(pre)
                backend = engine._shard_backend
                assert backend.counters["stale_refusals"] >= 1
            assert nodes.shutdown()


class TestProcessPoolDeath:
    def test_worker_sigkill_degrades_to_serial(self, ssb_air):
        with AStoreEngine(ssb_air, EngineOptions(
                parallel_backend="process", workers=2,
                use_cache=False)) as engine:
            with AStoreEngine(ssb_air, EngineOptions(
                    parallel_backend="serial", use_cache=False)) as serial:
                truth = client_rows(serial.query(SQL_YEAR))
            first = engine.query(SQL_YEAR)
            assert client_rows(first) == truth
            assert first.stats.shard_fallbacks == 0
            # SIGKILL one pool worker: the next sharded run must surface
            # as a typed fallback, not a hang or a raw BrokenProcessPool
            pool = engine._shard_backend._pool
            victim = next(iter(pool._processes))
            os.kill(victim, signal.SIGKILL)
            # the pool notices the death asynchronously; a shard run fast
            # enough to finish on the survivor first would degrade one
            # query later, so wait until the pool knows it is broken
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            degraded = engine.query(SQL_YEAR)
            assert client_rows(degraded) == truth
            assert degraded.stats.shard_fallbacks == 1
            # the broken backend was evicted: the next query runs on a
            # fresh pool, cleanly
            recovered = engine.query(SQL_YEAR)
            assert client_rows(recovered) == truth
            assert recovered.stats.shard_fallbacks == 0


class TestServeDeadline:
    def test_timeout_ms_answers_structured_error(self, tiny_star):
        from repro.engine.serve import AsyncEngine, serve_tcp

        install_chaos("delay@serve.request:1x0=0.5")

        async def main():
            engine = AsyncEngine(tiny_star, options=EngineOptions(
                parallel_backend="serial", cache_results=False))
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write((json.dumps(
                    {"id": 1, "sql": SQL_YEAR, "timeout_ms": 50})
                    + "\n").encode())
                await writer.drain()
                timed_out = json.loads(await reader.readline())
                clear_chaos()
                writer.write((json.dumps(
                    {"id": 2, "sql": SQL_YEAR, "timeout_ms": 30_000})
                    + "\n").encode())
                await writer.drain()
                answered = json.loads(await reader.readline())
                writer.close()
            finally:
                await server.stop()
            return timed_out, answered, server.failures

        timed_out, answered, failures = asyncio.run(main())
        assert timed_out["timeout"] is True and timed_out["id"] == 1
        assert "deadline exceeded" in timed_out["error"]
        assert answered["id"] == 2 and answered["rows"]
        assert failures == 1

    def test_server_wide_deadline_from_run_server_param(self, tiny_star):
        from repro.engine.serve import AsyncEngine, serve_tcp

        install_chaos("delay@serve.request:1x0=0.5")

        async def main():
            engine = AsyncEngine(tiny_star, options=EngineOptions(
                parallel_backend="serial", cache_results=False))
            server = await serve_tcp(engine, "127.0.0.1", 0,
                                     request_timeout=0.05)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write((SQL_YEAR + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
            finally:
                await server.stop()
            return response

        response = asyncio.run(main())
        assert response["timeout"] is True


class TestFleetRespawnBackoff:
    @pytest.mark.skipif(
        not __import__("repro.core.shmcache",
                       fromlist=["store_available"]).store_available(),
        reason="the serving fleet needs POSIX shared memory")
    def test_crash_streak_backs_off_exponentially(self, tmp_path):
        import threading

        from repro.engine.fleet import ServeFleet

        db = build_tiny_star()
        path = str(tmp_path / "tiny.npz")
        save_database(db, path)
        messages = []
        fleet = ServeFleet(
            database_path=path, data_mode="copy", workers=1,
            options=EngineOptions(parallel_backend="serial",
                                  cache_results=True),
            port=0, shared_store=False, respawn_base=0.1, respawn_cap=2.0,
            announce=messages.append)
        fleet.start()
        waiter = threading.Thread(target=fleet.wait, daemon=True)
        waiter.start()
        try:
            for expected in (1, 2):  # two quick kills = a crash streak
                pid = fleet._workers[0].process.pid
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 60
                while (len(fleet.respawn_backoffs) < expected
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                assert len(fleet.respawn_backoffs) == expected
                # wait for the respawned worker to come up
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    worker = fleet._workers.get(0)
                    if worker is not None and worker.process.is_alive():
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError("worker never respawned")
        finally:
            fleet.request_stop()
            waiter.join(timeout=120)
            fleet.close()
        first, second = fleet.respawn_backoffs
        # base*(1+jitter<=0.25) < base*2: the streak doubled the wait
        assert 0.1 <= first <= 0.125 * 1.001
        assert 0.2 <= second <= 0.25 * 1.001
        assert sum("respawning in" in m for m in messages) == 2
        assert any("crash 2" in m for m in messages)

    def test_chaos_kill_on_spawn_fails_startup_deterministically(
            self, tmp_path):
        if not __import__("repro.core.shmcache",
                          fromlist=["store_available"]).store_available():
            pytest.skip("fleet needs POSIX shared memory")
        from repro.engine.fleet import ServeFleet
        from repro.errors import AStoreError

        db = build_tiny_star()
        path = str(tmp_path / "tiny.npz")
        save_database(db, path)
        os.environ["ASTORE_CHAOS"] = "kill@fleet.worker"
        try:
            fleet = ServeFleet(
                database_path=path, data_mode="copy", workers=1,
                options=EngineOptions(parallel_backend="serial"),
                port=0, shared_store=False)
            with pytest.raises(AStoreError, match="died during startup"):
                fleet.start()
        finally:
            os.environ.pop("ASTORE_CHAOS", None)


class TestDistributedSweep:
    def test_bench_mode_records_recovery(self, ssb_path):
        from repro.bench import distributed_sweep

        times = distributed_sweep(database_path=ssb_path, node_count=2,
                                  query_ids=["Q1.1", "Q2.1", "Q3.1", "Q4.1"])
        assert times["healthy"]["mismatches"] == []
        assert times["healthy"]["clean_shutdown"]
        degraded = times["degraded"]
        assert degraded["mismatches"] == []
        assert degraded["nodes_lost"] >= 1
        assert degraded["reshards"] >= 1
        assert degraded["clean_shutdown"]
        assert times["recovered"]
