"""Concurrency-correct serving: the async engine, the TCP server, and
the aliasing/race bugfixes this PR demonstrates under test.

Contracts:

* **served-result isolation** — result-tier hits are frozen, per-caller
  copies: no caller can mutate what another caller (or the cache) sees;
* **scratch-lease isolation** — pipeline runs interleaving on one
  event-loop thread never alias a scratch buffer (the thread-local fast
  path stays for the sync backends);
* **backend lifecycle** — the shard-backend registry survives
  concurrent acquire/release racing mutations without double-closing or
  serving a closed pool, and mutate-while-querying is safe on every
  backend;
* **concurrent serving** — N async clients running the 13 SSB queries
  agree with serial ground truth, cancellation leaves the engine
  reusable, and adaptive-filter statistics stay coherent;
* **the front door** — a request past its deadline answers a structured
  ``{"timeout": true}`` error, a malformed deadline a ``bad request``,
  and past ``max_pending`` (or on a refused admission) a structured
  ``{"overloaded": true}`` shed, while admitted requests stay exact.
  The slow query and the refused admission are forced with
  ``monkeypatch`` on the engine's ``query`` and the server's admission
  check.
"""

import asyncio
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import AStoreEngine, AsyncEngine, EngineOptions
from repro.engine import sharding
from repro.engine.scratch import ScratchPool, lease_pool, local_pool
from repro.engine.serve import serve_tcp
from repro.workloads import SSB_QUERIES

from .conftest import build_tiny_star

SQL_YEAR = ("SELECT d_year, sum(lo_revenue) AS revenue "
            "FROM lineorder, date GROUP BY d_year")


def fresh_engine(db, **overrides):
    return AStoreEngine.variant(db, "AIRScan_C_P_G", **overrides)


# -- bugfix 1: result-tier aliasing -------------------------------------------


class TestServedResultIsolation:
    def test_served_arrays_are_frozen(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        ground = engine.query(SQL_YEAR).rows()
        served = engine.query(SQL_YEAR)  # result-tier hit
        assert served.stats.cache_events.get("result_hits") == 1
        with pytest.raises(ValueError):
            served.column("revenue")[0] = -1
        assert engine.query(SQL_YEAR).rows() == ground

    def test_first_caller_cannot_corrupt_tier_either(self):
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        first = engine.query(SQL_YEAR)  # the execution that fills the tier
        ground = first.rows()
        with pytest.raises(ValueError):
            first.column("revenue")[:] = 0
        assert engine.query(SQL_YEAR).rows() == ground

    def test_column_map_clobber_is_private(self):
        # replacing an entry of one served result's dict must not leak
        # into the cache or into other callers
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        ground = engine.query(SQL_YEAR).rows()
        a = engine.query(SQL_YEAR)
        b = engine.query(SQL_YEAR)
        a.columns["revenue"] = np.zeros(len(a), dtype=np.int64)
        assert b.rows() == ground
        assert engine.query(SQL_YEAR).rows() == ground

    def test_stats_object_is_not_shared_with_the_cache(self):
        # the first caller's stats must be private too: poisoning them
        # must not surface in later served hits
        db = build_tiny_star()
        engine = fresh_engine(db, cache_results=True)
        first = engine.query(SQL_YEAR)  # fills the tier
        first.stats.filter_modes["poison"] = "leak"
        first.stats.cache_events["poison"] = 1
        served = engine.query(SQL_YEAR)
        assert "poison" not in served.stats.filter_modes
        assert "poison" not in served.stats.cache_events

    def test_concurrent_callers_cannot_observe_mutations(self):
        db = build_tiny_star()

        async def main():
            async with AsyncEngine(db) as engine:
                ground = (await engine.query(SQL_YEAR)).rows()

                async def mutator():
                    result = await engine.query(SQL_YEAR)
                    result.columns["revenue"] = np.zeros(
                        len(result), dtype=np.int64)
                    with pytest.raises(ValueError):
                        result.columns["d_year"][0] = 0
                    return result

                async def reader():
                    await asyncio.sleep(0)
                    return await engine.query(SQL_YEAR)

                _, read = await asyncio.gather(mutator(), reader())
                assert read.rows() == ground

        asyncio.run(main())


# -- bugfix 2: scratch-pool leases --------------------------------------------


class TestScratchLeases:
    def test_interleaved_tasks_never_alias(self):
        # two pipeline runs interleaving on ONE event-loop thread: with
        # thread-keyed scratch they would hand out the same buffer; a
        # lease per run keeps them disjoint across awaits
        async def run(value, out):
            with lease_pool():
                mask = local_pool().bool_mask(512)
                mask.fill(value)
                await asyncio.sleep(0)  # another task runs here
                out.append(mask.copy())
                return mask

        async def main():
            kept_a, kept_b = [], []
            mask_a, mask_b = await asyncio.gather(
                run(True, kept_a), run(False, kept_b))
            assert not np.shares_memory(mask_a, mask_b)
            assert kept_a[0].all()
            assert not kept_b[0].any()

        asyncio.run(main())

    def test_lease_returns_pool_to_free_list(self):
        with lease_pool() as pool:
            first = pool.take(64, np.int64)
            first[:] = 7
        with lease_pool() as again:
            assert again is pool  # warm buffers reused, LIFO

    def test_nested_leases_restore_outer(self):
        with lease_pool() as outer:
            assert local_pool() is outer
            with lease_pool() as inner:
                assert local_pool() is inner
                assert inner is not outer
            assert local_pool() is outer

    def test_thread_local_fast_path_unchanged(self):
        # outside a lease, each thread keeps one stable pool
        assert local_pool() is local_pool()
        pools = []
        t = threading.Thread(target=lambda: pools.append(local_pool()))
        t.start()
        t.join()
        assert pools[0] is not local_pool()
        assert isinstance(pools[0], ScratchPool)


# -- bugfix 3: backend lifecycle races ----------------------------------------


class _StubBackend:
    """Stands in for ProcessShardBackend: same registry contract, no
    real pool — so the registry protocol can be hammered quickly."""

    instances = []

    def __init__(self, db, workers):
        self.workers = max(1, int(workers))
        self.stamp = sharding.database_stamp(db)
        self.refs = 0
        self._registry_key = None
        self.close_calls = 0
        self.closed_with_refs = None
        _StubBackend.instances.append(self)

    def is_stale(self, db):
        stale = sharding.database_stamp(db) != self.stamp
        time.sleep(0.0002)  # widen the check-then-act window
        return stale

    def retain(self):
        with sharding._REGISTRY_LOCK:
            self.refs += 1
        return self

    def close(self):
        self.close_calls += 1
        if self.close_calls == 1:
            self.closed_with_refs = self.refs

    @property
    def closed(self):
        return self.close_calls > 0


class TestBackendLifecycle:
    def test_concurrent_acquire_release_with_mutations(self, monkeypatch):
        """Stress the registry protocol: concurrent holders racing
        mutations must never be handed a closed backend, never close a
        backend twice, and never leak one."""
        monkeypatch.setattr(sharding, "ProcessShardBackend", _StubBackend)
        _StubBackend.instances = []
        db = build_tiny_star()
        table = db.table("lineorder")
        errors = []
        stop = threading.Event()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def holder():
                try:
                    for _ in range(150):
                        backend = sharding.acquire_shard_backend(db, 1)
                        if backend.closed:
                            errors.append("acquired a closed backend")
                        if backend.refs <= 0:
                            errors.append("acquired with refs <= 0")
                        time.sleep(0.0001)
                        sharding.release_shard_backend(backend)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            def mutator():
                while not stop.is_set():
                    table.update([0], {"lo_quantity": [5]})
                    time.sleep(0.001)

            threads = [threading.Thread(target=holder) for _ in range(6)]
            mut = threading.Thread(target=mutator)
            mut.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stop.set()
            mut.join()
        finally:
            sys.setswitchinterval(old_interval)

        assert not errors, errors[:5]
        # drain: anything still registered is released by its holders
        # above, so every stub must be closed exactly once, with no refs
        leaked = [b for b in _StubBackend.instances if b.close_calls != 1]
        assert not leaked, (
            f"{len(leaked)} backends closed != once: "
            f"{[b.close_calls for b in leaked]}")
        early = [b for b in _StubBackend.instances
                 if b.closed_with_refs and b.closed_with_refs > 0]
        assert not early, "backend closed while references were live"
        assert all(b.refs == 0 for b in _StubBackend.instances)

    def test_release_is_idempotent(self, monkeypatch):
        monkeypatch.setattr(sharding, "ProcessShardBackend", _StubBackend)
        _StubBackend.instances = []
        db = build_tiny_star()
        backend = sharding.acquire_shard_backend(db, 1)
        sharding.release_shard_backend(backend)
        sharding.release_shard_backend(backend)  # no-op, not refs = -1
        assert backend.refs == 0
        assert backend.close_calls == 1

    def test_run_pin_outlives_engine_swap(self, monkeypatch):
        """A query mid-run keeps its checked-out backend open even when
        a concurrent query observes a mutation and swaps the engine onto
        a fresh export."""
        monkeypatch.setattr(sharding, "ProcessShardBackend", _StubBackend)
        _StubBackend.instances = []
        db = build_tiny_star()
        engine = fresh_engine(db, parallel_backend="process")
        first = engine._slot.checkout()      # query A starts its run
        db.table("lineorder").update([0], {"lo_quantity": [5]})
        second = engine._slot.checkout()     # query B re-exports
        assert second is not first
        assert not first.closed                 # A's pool still live
        sharding.release_shard_backend(first)   # A's run finishes
        assert first.closed
        sharding.release_shard_backend(second)
        engine.close()
        assert second.close_calls == 1

    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_mutate_while_querying_stress(self, backend):
        # in-place updates (no length change) racing queries: every
        # mutation bumps the table stamp, so this exercises cache
        # invalidation, zone-map rebuilds, and — on the process backend —
        # concurrent stale-eviction/re-export of the shared arena
        from repro.datagen import generate_ssb

        db = generate_ssb(sf=0.002, seed=31)
        table = db.table("lineorder")
        workers = 2 if backend != "serial" else 1
        errors = []
        with fresh_engine(db, parallel_backend=backend,
                          workers=workers) as engine:
            def reader():
                try:
                    for _ in range(6):
                        engine.query(SQL_YEAR)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            def writer():
                try:
                    for round_no in range(4):
                        table.update([0, 1], {
                            "lo_quantity": [10 + round_no, 20 + round_no]})
                        time.sleep(0.01)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors[:3]
            # settled state must agree with a fresh uncached engine
            with fresh_engine(db, use_cache=False) as probe:
                assert engine.query(SQL_YEAR).rows() == \
                    probe.query(SQL_YEAR).rows()


# -- concurrent serving -------------------------------------------------------


@pytest.fixture(scope="module")
def serving_db():
    from repro.datagen import generate_ssb

    return generate_ssb(sf=0.005, seed=7)


class TestAsyncServing:
    def test_concurrent_clients_match_serial_ground_truth(self, serving_db):
        with fresh_engine(serving_db, use_cache=False) as probe:
            ground = {qid: probe.query(sql).rows()
                      for qid, sql in SSB_QUERIES.items()}

        async def main():
            async with AsyncEngine(serving_db) as engine:
                ids = list(SSB_QUERIES)

                async def client(offset):
                    rows = {}
                    for i in range(len(ids)):
                        qid = ids[(i + offset) % len(ids)]
                        result = await engine.query(SSB_QUERIES[qid])
                        rows[qid] = result.rows()
                    return rows

                per_client = await asyncio.gather(
                    *(client(i) for i in range(8)))
                for rows in per_client:
                    for qid, got in rows.items():
                        assert got == ground[qid], qid
                assert engine.stats.peak_inflight > 1
                assert engine.stats.queries == 8 * len(ids)

        asyncio.run(main())

    def test_identical_cold_queries_coalesce(self, serving_db):
        from repro.engine import query_cache_for

        query_cache_for(serving_db).clear()  # make Q2.1 genuinely cold

        async def main():
            options = EngineOptions(parallel_backend="serial",
                                    cache_results=True)
            async with AsyncEngine(serving_db, options=options) as engine:
                sql = SSB_QUERIES["Q2.1"]
                results = await asyncio.gather(
                    *(engine.query(sql) for _ in range(16)))
                first = results[0].rows()
                assert all(r.rows() == first for r in results)
                # one leader executed; everyone else rode it or the tier
                assert engine.stats.executed == 1
                assert (engine.stats.coalesced
                        + engine.stats.served_on_loop) == 15

        asyncio.run(main())

    def test_cancellation_leaves_engine_reusable(self, serving_db):
        from repro.engine import query_cache_for

        query_cache_for(serving_db).clear()  # force a real execution

        async def main():
            async with AsyncEngine(serving_db) as engine:
                task = asyncio.create_task(
                    engine.query(SSB_QUERIES["Q3.1"]))
                await asyncio.sleep(0)  # let it get in flight
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert engine.stats.cancelled == 1
                # the engine (and any shard pool) must still serve
                result = await engine.query(SSB_QUERIES["Q3.1"])
                assert len(result) > 0
                return result.rows()

        rows = asyncio.run(main())
        with fresh_engine(serving_db, use_cache=False) as probe:
            assert rows == probe.query(SSB_QUERIES["Q3.1"]).rows()

    def test_reorder_stats_stay_coherent(self, serving_db):
        async def main():
            options = EngineOptions(parallel_backend="serial",
                                    cache_results=False, morsel_rows=512)
            async with AsyncEngine(serving_db, options=options) as engine:
                sql = SSB_QUERIES["Q2.1"]
                await asyncio.gather(*(engine.query(sql) for _ in range(8)))
                key = engine.engine.result_key(sql)
                bound = engine.engine.cache.get("plan", key, serving_db)
                assert bound is not None
                state = bound.reorder_state()
                assert len(state.passes) == len(state.rows)
                for passed, total in zip(state.passes, state.rows):
                    assert 0 <= passed <= total  # no torn accounting
                order = state.order(list(range(len(state.rows))))
                assert sorted(order) == list(range(len(state.rows)))

        asyncio.run(main())


class TestQueryServer:
    def test_three_concurrent_clients_and_clean_shutdown(self, serving_db):
        with fresh_engine(serving_db, use_cache=False) as probe:
            expected = probe.query(SQL_YEAR).rows()

        async def main():
            engine = AsyncEngine(serving_db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            waiter = asyncio.create_task(server.wait_closed())

            async def client(i):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(json.dumps(
                    {"sql": SQL_YEAR, "id": i}).encode() + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                return response

            responses = await asyncio.gather(*(client(i) for i in range(3)))
            for i, response in enumerate(responses):
                assert response["id"] == i
                assert [tuple(row) for row in response["rows"]] == expected

            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"PING\n")
            await writer.drain()
            assert (await reader.readline()).strip() == b"PONG"
            writer.write(b"not even sql\n")
            await writer.drain()
            assert "error" in json.loads(await reader.readline())
            writer.write(b"SHUTDOWN\n")
            await writer.drain()
            assert json.loads(await reader.readline())["shutdown"] is True
            writer.close()
            await asyncio.wait_for(waiter, timeout=10)
            assert server.requests == 4  # 3 queries + 1 failed parse

        asyncio.run(main())

    def test_non_astore_errors_answer_instead_of_tearing_the_socket(
            self, serving_db):
        async def main():
            engine = AsyncEngine(serving_db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            # JSON-valid but wrong-typed payload: not an AStoreError
            writer.write(b'{"sql": 123, "id": 9}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["id"] == 9 and "error" in response
            # the connection survives and keeps serving
            writer.write(json.dumps({"sql": SQL_YEAR, "id": 10}).encode()
                         + b"\n")
            await writer.drain()
            assert json.loads(await reader.readline())["id"] == 10
            writer.close()
            await server.stop()

        asyncio.run(main())

    def test_shutdown_with_idle_client_still_terminates(self, serving_db):
        # Server.wait_closed blocks until every handler exits on
        # 3.12.1+; an idle client parked in readline() must not pin the
        # shutdown forever
        async def main():
            engine = AsyncEngine(serving_db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            waiter = asyncio.create_task(server.wait_closed())
            _idle_reader, idle_writer = await asyncio.open_connection(
                host, port)  # connects, sends nothing
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"SHUTDOWN\n")
            await writer.drain()
            assert json.loads(await reader.readline())["shutdown"] is True
            await asyncio.wait_for(waiter, timeout=10)
            writer.close()
            idle_writer.close()

        asyncio.run(main())


class TestGracefulDrainAndAdmin:
    """PR contracts: stop() finishes in-flight requests before closing,
    STATS exposes the per-worker serving picture, and the update admin
    applies a mutation then answers with the new mutation count."""

    def test_stop_waits_for_inflight_request(self, serving_db):
        async def main():
            engine = AsyncEngine(serving_db)
            original = engine.query

            async def slow_query(sql, **kwargs):
                await asyncio.sleep(0.3)
                return await original(sql, **kwargs)

            engine.query = slow_query
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"sql": SQL_YEAR, "id": 1}).encode()
                         + b"\n")
            await writer.drain()
            await asyncio.sleep(0.05)  # the request is now in flight
            stop_task = asyncio.create_task(server.stop())
            # the drain must deliver the answer, not cut the socket
            response = json.loads(await asyncio.wait_for(
                reader.readline(), timeout=10))
            assert response["id"] == 1 and response["rows"]
            await asyncio.wait_for(stop_task, timeout=10)
            writer.close()

        asyncio.run(main())

    def test_stop_with_idle_connection_does_not_hang(self, serving_db):
        async def main():
            engine = AsyncEngine(serving_db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            _reader, idle_writer = await asyncio.open_connection(host, port)
            await asyncio.sleep(0.05)  # connected, nothing in flight
            await asyncio.wait_for(server.stop(), timeout=10)
            idle_writer.close()

        asyncio.run(main())

    def test_stats_admin_reports_the_serving_picture(self, serving_db):
        import os

        async def main():
            engine = AsyncEngine(serving_db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"sql": SQL_YEAR, "id": 0}).encode()
                         + b"\n")
            await writer.drain()
            await reader.readline()
            writer.write(b"STATS\n")
            await writer.drain()
            payload = json.loads(await reader.readline())
            assert payload["pid"] == os.getpid()
            assert payload["requests"] >= 1
            assert "executed" in payload["serve"]
            assert set(payload["cache"]) >= {"plan", "result"}
            for tier in payload["cache"].values():
                assert {"hits", "misses"} <= set(tier)
            writer.close()
            await server.stop()

        asyncio.run(main())

    def test_update_admin_applies_and_invalidates(self):
        db = build_tiny_star()

        async def main():
            engine = AsyncEngine(db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(obj):
                writer.write(json.dumps(obj).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            before = (await rpc({"sql": SQL_YEAR, "id": 1}))["rows"]
            response = await rpc({"update": {
                "table": "lineorder", "positions": [0],
                "values": {"lo_revenue": [10_000]}}, "id": 2})
            assert response["ok"] and response["table"] == "lineorder"
            assert response["mutation_count"] \
                == db.table("lineorder").mutation_count
            after = (await rpc({"sql": SQL_YEAR, "id": 3}))["rows"]
            assert after != before  # the cached answer did not survive
            revenue = {year: value for year, value in after}
            assert revenue[1997] \
                == {y: v for y, v in before}[1997] + 10_000 - 10
            # malformed updates answer with an error, not a teardown
            bad = await rpc({"update": {"table": "nope", "positions": [0],
                                        "values": {"x": [1]}}, "id": 4})
            assert "error" in bad
            writer.close()
            await server.stop()

        asyncio.run(main())


# -- the front door: request deadline and overload shedding --------------------


def stall_queries(monkeypatch, engine, seconds=0.5):
    """Make every ``engine.query`` sleep *seconds* before it delegates.
    The server awaits the call inside its ``asyncio.wait_for``, so the
    stall is indistinguishable from a genuinely slow query."""
    query = engine.query

    async def stalled(*args, **kwargs):
        await asyncio.sleep(seconds)
        return await query(*args, **kwargs)

    monkeypatch.setattr(engine, "query", stalled)


def refuse_admission_once(monkeypatch, server):
    """Make the server's admission check refuse the next request, then
    defer to the real ``max_pending`` check."""
    admit = server._admit
    refused = []

    def refuse_once():
        if refused:
            return admit()
        refused.append(True)
        return False

    monkeypatch.setattr(server, "_admit", refuse_once)


class TestServeDeadline:
    def test_timeout_ms_answers_structured_error(self, tiny_star,
                                                 monkeypatch):
        async def main():
            engine = AsyncEngine(tiny_star, options=EngineOptions(
                parallel_backend="serial", cache_results=False))
            stall_queries(monkeypatch, engine)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write((json.dumps(
                    {"id": 1, "sql": SQL_YEAR, "timeout_ms": 50})
                    + "\n").encode())
                await writer.drain()
                timed_out = json.loads(await reader.readline())
                monkeypatch.undo()
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

    def test_server_wide_deadline_from_run_server_param(self, tiny_star,
                                                        monkeypatch):
        async def main():
            engine = AsyncEngine(tiny_star, options=EngineOptions(
                parallel_backend="serial", cache_results=False))
            stall_queries(monkeypatch, engine)
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

    @pytest.mark.parametrize("timeout_ms", [-1, math.nan, math.inf],
                             ids=["negative", "nan", "infinity"])
    def test_malformed_timeout_ms_is_a_bad_request(self, tiny_star,
                                                   timeout_ms):
        async def main():
            engine = AsyncEngine(tiny_star, options=EngineOptions(
                parallel_backend="serial", cache_results=False))
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # json.dumps writes NaN and Infinity, which json.loads reads
                writer.write((json.dumps(
                    {"id": 1, "sql": SQL_YEAR, "timeout_ms": timeout_ms})
                    + "\n").encode())
                await writer.drain()
                rejected = json.loads(await reader.readline())
                # 0 still means "no deadline"
                writer.write((json.dumps(
                    {"id": 2, "sql": SQL_YEAR, "timeout_ms": 0})
                    + "\n").encode())
                await writer.drain()
                answered = json.loads(await reader.readline())
                writer.close()
            finally:
                await server.stop()
            return rejected, answered, server.requests

        rejected, answered, requests = asyncio.run(main())
        assert rejected["id"] == 1 and "timeout" not in rejected
        assert rejected["error"].startswith("bad request")
        assert answered["id"] == 2 and answered["rows"]
        assert requests == 1  # the malformed request never ran


class TestOverloadFrontDoor:
    def test_refused_admission_is_a_structured_shed(self, monkeypatch):
        db = build_tiny_star()
        with AStoreEngine(db, EngineOptions(parallel_backend="serial",
                                            use_cache=False)) as probe:
            expected = [list(row) for row in probe.query(SQL_YEAR).rows()]

        async def main():
            engine = AsyncEngine(db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            refuse_admission_once(monkeypatch, server)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"sql": SQL_YEAR, "id": 1}).encode()
                         + b"\n")
            await writer.drain()
            shed = json.loads(await reader.readline())
            assert shed["id"] == 1 and shed["overloaded"] is True
            assert "error" in shed and "rows" not in shed
            # the refusal is spent: the retry is admitted and exact
            writer.write(json.dumps({"sql": SQL_YEAR, "id": 2}).encode()
                         + b"\n")
            await writer.drain()
            ok = json.loads(await reader.readline())
            assert ok["id"] == 2 and ok["rows"] == expected
            writer.write(b"STATS\n")
            await writer.drain()
            stats = json.loads(await reader.readline())
            assert stats["shed"] == 1
            writer.close()
            await server.stop()
            assert server.shed == 1

        asyncio.run(main())

    def test_max_pending_sheds_but_accepted_requests_stay_exact(
            self, monkeypatch):
        db = build_tiny_star()
        with AStoreEngine(db, EngineOptions(parallel_backend="serial",
                                            use_cache=False)) as probe:
            expected = [list(row) for row in probe.query(SQL_YEAR).rows()]

        async def main():
            engine = AsyncEngine(db, EngineOptions(
                parallel_backend="serial", use_cache=False))
            # every admitted request stalls 0.5 s inside the engine, so
            # the second arrival finds max_pending=1 already in flight
            stall_queries(monkeypatch, engine)
            server = await serve_tcp(engine, "127.0.0.1", 0, max_pending=1)
            host, port = server.address
            slow_reader, slow_writer = await asyncio.open_connection(
                host, port)
            slow_writer.write(json.dumps(
                {"sql": SQL_YEAR, "id": "slow"}).encode() + b"\n")
            await slow_writer.drain()
            await asyncio.sleep(0.1)  # the slow request is in flight
            fast_reader, fast_writer = await asyncio.open_connection(
                host, port)
            fast_writer.write(json.dumps(
                {"sql": SQL_YEAR, "id": "fast"}).encode() + b"\n")
            await fast_writer.drain()
            shed = json.loads(await fast_reader.readline())
            assert shed["id"] == "fast" and shed["overloaded"] is True
            assert "max_pending=1" in shed["error"]
            # the admitted request is untouched by the shed
            slow = json.loads(await slow_reader.readline())
            assert slow["id"] == "slow" and slow["rows"] == expected
            # capacity freed: the retry is admitted and exact
            fast_writer.write(json.dumps(
                {"sql": SQL_YEAR, "id": "retry"}).encode() + b"\n")
            await fast_writer.drain()
            retry = json.loads(await fast_reader.readline())
            assert retry["id"] == "retry" and retry["rows"] == expected
            slow_writer.close()
            fast_writer.close()
            await server.stop()
            assert server.shed == 1

        asyncio.run(main())
