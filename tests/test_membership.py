"""Self-healing cluster: membership, rejoin, and the overload front door.

Contracts, each pinned with deterministic chaos or an injectable clock:

* **state machine** — alive → suspect → dead on consecutive missed
  heartbeats, dead sticky until re-registration (which bumps the
  incarnation), a clean ``leave`` drops the member without a death;
* **flap** — a ``flap@membership.heartbeat`` rule oscillates a member
  alive ↔ suspect without ever reaching dead;
* **rejoin** — a node SIGKILLed under a membership view is declared
  dead, and after a restart on the same port it re-registers, folds
  into the next scatter wave (``remote_nodes_joined``), and the full
  13-query SSB flight is bit-identical to serial again;
* **catch-up** — a restarted node whose archive copy predates a
  coordinator mutation seeds its stamp lane from the join reply and
  *refuses* shards instead of serving the stale copy;
* **breaker** — per-node circuit: open after ``threshold`` consecutive
  failures, half-open one probe after ``reset_seconds``, closed on
  probe success; membership may vouch for a locally-dead link but the
  breaker still gates its readmission;
* **hedge** — a shard unanswered past ``node_hedge`` races on a second
  live node and either answer is the answer (``hedges``/``hedge_wins``);
* **overload** — past ``max_pending`` in-flight requests (or an armed
  ``coordinator.admit`` fault) the serve layer sheds with a structured
  ``{"overloaded": true}`` error while every accepted request stays
  exact;
* **graceful SIGTERM** — a node finishes its in-flight shard,
  deregisters from the membership view, and exits 0;
* **reaper** (satellite) — an interpreter that exits without closing
  its :class:`LocalNodes` still reaps the node processes via atexit;
* **lane reconnect** (satellite) — a node's stamp lane survives a
  dropped coordinator socket: the counts are node-side state, not
  connection state.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro.engine.chaos import (
    ChaosController,
    ChaosDrop,
    clear_chaos,
    install_chaos,
    parse_rules,
)
from repro.engine.distributed import (
    CircuitBreaker,
    LocalNodes,
    RemoteShardBackend,
    ShardNode,
    _NodeLink,
)
from repro.engine.executor import AStoreEngine, EngineOptions
from repro.engine.membership import (
    ClusterView,
    MembershipClient,
    MembershipServer,
    announce_join,
    announce_leave,
)
from repro.engine.serve import AsyncEngine, serve_tcp
from repro.engine.sharding import database_stamp
from repro.errors import AStoreError, ChaosSpecError, MembershipError
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
    path = str(tmp_path_factory.mktemp("member") / "ssb.npz")
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


def member_engine(db, server, **overrides):
    """An engine whose remote backend reads the membership view instead
    of a static node list."""
    overrides.setdefault("node_timeout", 15.0)
    return AStoreEngine(db, EngineOptions(
        parallel_backend="remote", membership=server.address,
        use_cache=False, **overrides))


def wait_until(predicate, timeout=10.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class TestClusterView:
    def test_alive_suspect_dead_transitions_are_pinned(self):
        view = ClusterView(suspect_after=2, dead_after=4)
        view.register("127.0.0.1:7001", pid=41)
        assert view.record_probe("127.0.0.1:7001", ok=False) == "alive"
        assert view.record_probe("127.0.0.1:7001", ok=False) == "suspect"
        assert view.record_probe("127.0.0.1:7001", ok=False) == "suspect"
        assert view.record_probe("127.0.0.1:7001", ok=False) == "dead"
        assert [(old, new) for _, old, new, _ in view.transitions] == [
            ("", "alive"), ("alive", "suspect"), ("suspect", "dead")]
        # generations strictly increase with each transition
        assert [g for *_, g in view.transitions] == [1, 2, 3]

    def test_recovered_probe_resets_the_miss_streak(self):
        view = ClusterView(suspect_after=2, dead_after=4)
        view.register("127.0.0.1:7001")
        view.record_probe("127.0.0.1:7001", ok=False)
        assert view.record_probe("127.0.0.1:7001", ok=True) == "alive"
        # the earlier miss no longer counts toward suspicion
        assert view.record_probe("127.0.0.1:7001", ok=False) == "alive"

    def test_dead_is_sticky_until_reregistration(self):
        view = ClusterView(suspect_after=1, dead_after=2)
        view.register("127.0.0.1:7001")
        view.record_probe("127.0.0.1:7001", ok=False)
        view.record_probe("127.0.0.1:7001", ok=False)
        assert view.states() == {"127.0.0.1:7001": "dead"}
        # a lucky probe does NOT resurrect a dead member
        assert view.record_probe("127.0.0.1:7001", ok=True) == "dead"
        # only a re-registration does, and it bumps the incarnation
        member = view.register("127.0.0.1:7001")
        assert member.state == "alive" and member.incarnation == 2
        assert view.live_addresses() == ["127.0.0.1:7001"]

    def test_suspect_still_counts_as_live(self):
        view = ClusterView(suspect_after=1, dead_after=3)
        view.register("127.0.0.1:7001")
        view.record_probe("127.0.0.1:7001", ok=False)
        assert view.states()["127.0.0.1:7001"] == "suspect"
        assert view.live_addresses() == ["127.0.0.1:7001"]

    def test_leave_drops_the_member_without_a_death(self):
        view = ClusterView()
        view.register("127.0.0.1:7001")
        view.leave("127.0.0.1:7001")
        assert view.members() == []
        assert view.transitions[-1][1:3] == ("alive", "")
        view.leave("127.0.0.1:7001")  # idempotent

    def test_bad_config_and_address_are_typed_errors(self):
        with pytest.raises(MembershipError):
            ClusterView(suspect_after=0)
        with pytest.raises(MembershipError):
            ClusterView(suspect_after=5, dead_after=2)
        with pytest.raises(MembershipError):
            ClusterView().register("no-port-here")


class TestChaosSpecEdges:
    def test_unknown_site_is_a_typed_error(self):
        with pytest.raises(ChaosSpecError, match="unknown site"):
            parse_rules("kill@node.nonexistent")
        # the typed error is both an AStoreError and a ValueError
        try:
            parse_rules("kill@node.nonexistent")
        except ChaosSpecError as exc:
            assert isinstance(exc, AStoreError)
            assert isinstance(exc, ValueError)

    @pytest.mark.parametrize("spec", [
        "kill@node.run=1",
        "drop@coordinator.send=0.5",
        "error@serve.request=2",
        "corrupt@node.response=1",
        "flap@membership.heartbeat=3",
    ])
    def test_value_on_non_delay_action_is_rejected(self, spec):
        with pytest.raises(ChaosSpecError, match="only the delay action"):
            parse_rules(spec)

    def test_first_combined_with_count(self):
        (rule,) = parse_rules("error@node.run:3x5")
        assert (rule.first, rule.count) == (3, 5)
        assert [rule.due(hit) for hit in range(1, 10)] == [
            False, False, True, True, True, True, True, False, False]

    def test_flap_alternates_within_its_window(self):
        controller = ChaosController(
            parse_rules("flap@membership.heartbeat:1x0"))
        outcomes = []
        for _ in range(6):
            try:
                controller.fire("membership.heartbeat")
                outcomes.append("up")
            except ChaosDrop:
                outcomes.append("down")
        assert outcomes == ["down", "up", "down", "up", "down", "up"]

    @pytest.mark.parametrize("spec", [
        "kill@node.run:x",          # non-integer trigger
        "delay@node.run=abc",       # non-numeric value
        "delay@node.run:1.5",       # fractional hit index
    ])
    def test_malformed_triggers_and_values_raise(self, spec):
        with pytest.raises(ChaosSpecError):
            parse_rules(spec)


class TestMembershipWire:
    def test_join_members_leave_round_trip(self):
        stamps = (("lineorder", 3), ("date", 1))
        with MembershipServer(probe_seconds=0,
                              stamps_fn=lambda: stamps) as server:
            got_stamps, incarnation = announce_join(
                server.address, "127.0.0.1:9999", pid=123)
            assert tuple(got_stamps) == stamps and incarnation == 1
            # rejoin: same address, bumped incarnation
            _, incarnation = announce_join(server.address, "127.0.0.1:9999")
            assert incarnation == 2
            client = MembershipClient(server.address, ttl_seconds=0)
            assert client.members() == [("127.0.0.1:9999", "alive", 2)]
            assert client.live_addresses() == ["127.0.0.1:9999"]
            announce_leave(server.address, "127.0.0.1:9999")
            assert client.members() == []

    def test_client_degrades_to_last_snapshot_when_server_dies(self):
        server = MembershipServer(probe_seconds=0)
        server.start()
        announce_join(server.address, "127.0.0.1:9999")
        client = MembershipClient(server.address, ttl_seconds=0)
        assert client.live_addresses() == ["127.0.0.1:9999"]
        server.close()
        # the cached snapshot keeps answering; no exception
        assert client.live_addresses() == ["127.0.0.1:9999"]

    def test_unreachable_server_is_a_typed_error(self):
        with pytest.raises(MembershipError):
            announce_join("127.0.0.1:1", "127.0.0.1:9999", timeout=0.5)
        with pytest.raises(MembershipError):
            announce_join("nonsense", "127.0.0.1:9999")
        # leave is best-effort by design: no raise
        announce_leave("127.0.0.1:1", "127.0.0.1:9999", timeout=0.5)

    def test_prober_declares_an_unreachable_member_dead(self):
        view = ClusterView(suspect_after=1, dead_after=2)
        with MembershipServer(view=view, probe_seconds=0.05,
                              probe_timeout=0.25) as server:
            # nothing listens on this address: every probe misses
            announce_join(server.address, "127.0.0.1:9")
            wait_until(lambda: view.states().get("127.0.0.1:9") == "dead",
                       message="member declared dead")
        moves = [(old, new) for addr, old, new, _ in view.transitions
                 if addr == "127.0.0.1:9"]
        assert moves == [("", "alive"), ("alive", "suspect"),
                         ("suspect", "dead")]

    def test_flap_oscillates_suspect_alive_without_death(self, tiny_star):
        node = ShardNode(tiny_star)
        server_thread = threading.Thread(target=node.serve_forever,
                                         daemon=True)
        server_thread.start()
        view = ClusterView(suspect_after=1, dead_after=4)
        install_chaos("flap@membership.heartbeat:1x0")
        try:
            with MembershipServer(view=view, probe_seconds=0.05,
                                  probe_timeout=1.0) as server:
                announce_join(server.address, node.address)
                wait_until(
                    lambda: len([t for t in view.transitions
                                 if t[0] == node.address]) >= 5,
                    message="at least five flap transitions")
        finally:
            clear_chaos()
            node.stop()
            node.close()
        moves = [(old, new) for addr, old, new, _ in view.transitions
                 if addr == node.address]
        # down, up, down, up ... — suspect and back, never dead
        assert moves[0] == ("", "alive")
        assert all(move in (("alive", "suspect"), ("suspect", "alive"))
                   for move in moves[1:])
        assert "dead" not in view.states().values()


class TestCircuitBreaker:
    def make(self, threshold=2, reset=1.0):
        now = [0.0]
        notes = []
        breaker = CircuitBreaker(threshold=threshold, reset_seconds=reset,
                                 clock=lambda: now[0],
                                 on_transition=notes.append)
        return breaker, now, notes

    def test_opens_after_threshold_and_probes_half_open(self):
        breaker, now, notes = self.make()
        assert breaker.admits()
        breaker.record(False)
        assert breaker.state == "closed" and breaker.admits()
        breaker.record(False)
        assert breaker.state == "open" and notes == ["opened"]
        assert not breaker.admits()
        now[0] = 1.5  # past the reset window
        assert breaker.admits()  # the half-open probe
        assert breaker.state == "half-open"
        # only ONE probe is admitted while it is in flight
        assert not breaker.admits()
        breaker.record(True)
        assert breaker.state == "closed" and breaker.admits()
        assert notes == ["opened", "half_open", "closed"]

    def test_failed_probe_reopens_immediately(self):
        breaker, now, notes = self.make()
        breaker.record(False)
        breaker.record(False)
        now[0] = 1.5
        assert breaker.admits()
        breaker.record(False)  # the probe failed
        assert breaker.state == "open"
        assert not breaker.admits()
        now[0] = 3.0  # a fresh window from the reopen
        assert breaker.admits()
        breaker.record(True)
        assert breaker.state == "closed"
        assert notes == ["opened", "half_open", "opened",
                         "half_open", "closed"]

    def test_success_resets_the_failure_streak(self):
        breaker, _, notes = self.make(threshold=3)
        breaker.record(False)
        breaker.record(False)
        breaker.record(True)
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == "closed" and breaker.admits()
        assert notes == []


class TestBreakerGatesReactivation:
    def test_membership_vouching_does_not_bypass_the_breaker(self):
        db = build_tiny_star()
        view = ClusterView()
        view.register("127.0.0.1:9991")
        view.register("127.0.0.1:9992")
        with RemoteShardBackend(db, membership=view, heartbeat_seconds=0,
                                breaker_threshold=1,
                                breaker_reset=60.0) as backend:
            assert backend.counters["nodes_joined"] == 2
            assert backend.workers == 2
            link = backend._link_map["127.0.0.1:9991"]
            # this coordinator watched the node die
            link.breaker.record(False)
            backend._mark_dead(link, None)
            assert backend.counters["breaker_opened"] == 1
            assert [l.address for l in backend.alive_nodes()] == [
                "127.0.0.1:9992"]
            # membership still vouches (same incarnation): the link is
            # reactivated but the open breaker keeps gating traffic
            backend._refresh_membership(None)
            assert link.alive
            assert [l.address for l in backend.alive_nodes()] == [
                "127.0.0.1:9992"]
            # past the reset window exactly one probe is readmitted
            link.breaker.clock = lambda: link.breaker.opened_at + 99.0
            assert [l.address for l in backend.alive_nodes()] == [
                "127.0.0.1:9991", "127.0.0.1:9992"]
            assert backend.counters["breaker_half_open"] == 1
            assert [l.address for l in backend.alive_nodes()] == [
                "127.0.0.1:9992"]  # the probe is in flight
            link.breaker.record(True)
            assert backend.counters["breaker_closed"] == 1
            assert len(backend.alive_nodes()) == 2

    def test_incarnation_bump_resets_the_link_outright(self):
        db = build_tiny_star()
        view = ClusterView()
        view.register("127.0.0.1:9991")
        with RemoteShardBackend(db, membership=view, heartbeat_seconds=0,
                                breaker_threshold=1,
                                breaker_reset=60.0) as backend:
            link = backend._link_map["127.0.0.1:9991"]
            link.breaker.record(False)
            link.stale = True
            backend._mark_dead(link, None)
            assert not backend.alive_nodes()
            # a genuine restart: re-registration bumps the incarnation
            view.register("127.0.0.1:9991")
            report = {}
            backend._refresh_membership(report)
            assert report["nodes_joined"] == 1
            assert link.alive and not link.stale
            assert link.incarnation == 2
            assert link.breaker.state == "closed"
            assert len(backend.alive_nodes()) == 1


class TestRejoin:
    def test_kill_restart_rejoin_bit_identical(self, ssb_path, ssb_db,
                                               ssb_truth):
        with MembershipServer(stamps_fn=lambda: database_stamp(ssb_db),
                              probe_seconds=0.1,
                              probe_timeout=1.0) as server:
            with LocalNodes(ssb_path, count=2,
                            membership=server.address) as nodes:
                addr0 = nodes.nodes[0].address
                with member_engine(ssb_db, server,
                                   breaker_reset=30.0) as engine:
                    # healthy: both registered nodes serve, nothing local
                    healthy = engine.query(SSB_QUERIES["Q1.1"])
                    assert client_rows(healthy) == ssb_truth["Q1.1"]
                    stats = healthy.stats
                    assert stats.remote_nodes_lost == 0
                    assert stats.remote_local_shards == 0

                    nodes.kill(0)
                    degraded = engine.query(SSB_QUERIES["Q2.1"])
                    assert client_rows(degraded) == ssb_truth["Q2.1"]
                    # the loss lands in the backend counters whether the
                    # scatter wave or the heartbeat loop noticed first
                    assert engine._shard_backend.counters[
                        "nodes_lost"] >= 1

                    # the prober notices the death independently
                    wait_until(
                        lambda: server.view.states().get(addr0) == "dead",
                        message="membership view declares the node dead")

                    # restart on the same port: the node re-registers
                    nodes.restart(0)
                    member = server.view.get(addr0)
                    assert member.state == "alive"
                    assert member.incarnation == 2

                    # the next waves fold the rejoined node back in
                    joined = 0
                    deadline = time.monotonic() + 10.0
                    while joined == 0 and time.monotonic() < deadline:
                        joined += engine.query(
                            SQL_YEAR).stats.remote_nodes_joined
                        time.sleep(0.1)
                    assert joined >= 1

                    # full differential: bit-identical to serial again,
                    # with the rejoined node actually serving shards
                    for qid, sql in SSB_QUERIES.items():
                        result = engine.query(sql)
                        assert client_rows(result) == ssb_truth[qid], qid
                    assert result.stats.remote_local_shards == 0
                assert nodes.shutdown()
        moves = [(old, new) for addr, old, new, _ in server.view.transitions
                 if addr == addr0]
        assert ("suspect", "dead") in moves
        assert ("dead", "alive") in moves  # the re-registration

    def test_rejoined_stale_copy_refuses_via_join_stamps(self, tmp_path):
        db = build_tiny_star()
        path = str(tmp_path / "tiny.npz")
        save_database(db, path)
        coordinator_db = load_database(path)
        with MembershipServer(
                stamps_fn=lambda: database_stamp(coordinator_db),
                probe_seconds=0.1, probe_timeout=1.0) as server:
            with LocalNodes(path, count=2,
                            membership=server.address) as nodes:
                addr0 = nodes.nodes[0].address
                with member_engine(coordinator_db, server,
                                   breaker_reset=30.0) as engine:
                    pre = engine.query(SQL_YEAR)
                    assert pre.stats.remote_local_shards == 0

                    nodes.kill(0)
                    engine.query(SQL_YEAR)  # the loss is absorbed
                    wait_until(
                        lambda: server.view.states().get(addr0) == "dead",
                        message="dead declaration before the restart")

                    # mutate while the node is down: its archive copy is
                    # now stale, and it will never hear the broadcast —
                    # only the join reply's stamps can fence it
                    coordinator_db.table("lineorder").update(
                        [0], {"lo_revenue": [10_000]})
                    nodes.restart(0)

                    with AStoreEngine(coordinator_db, EngineOptions(
                            parallel_backend="serial",
                            use_cache=False)) as serial:
                        truth = client_rows(serial.query(SQL_YEAR))
                    backend = engine._shard_backend
                    # the rejoined node refuses its shards (stale lane
                    # seeded by the join reply) — every answer along the
                    # way reflects the mutation, never the stale copy
                    post = engine.query(SQL_YEAR)
                    assert client_rows(post) == truth
                    assert client_rows(post) != client_rows(pre)
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        link = backend._link_map.get(addr0)
                        if link is not None and link.stale:
                            break
                        assert client_rows(
                            engine.query(SQL_YEAR)) == truth
                        time.sleep(0.1)
                    assert backend._link_map[addr0].stale
                    assert backend.counters["stale_refusals"] >= 1
                assert nodes.shutdown()


class TestGracefulShutdown:
    def test_sigterm_finishes_inflight_deregisters_exits_zero(
            self, ssb_path, ssb_db, ssb_truth):
        with MembershipServer(probe_seconds=0) as server:
            # node 0 stalls 0.4 s on every execution: SIGTERM lands
            # while its shard is in flight
            with LocalNodes(ssb_path, count=2, membership=server.address,
                            chaos=["delay@node.run:1x0=0.4", ""]) as nodes:
                addr0 = nodes.nodes[0].address
                assert addr0 in server.view.states()
                with member_engine(ssb_db, server) as engine:
                    results = []
                    worker = threading.Thread(
                        target=lambda: results.append(
                            engine.query(SQL_YEAR)))
                    worker.start()
                    time.sleep(0.15)  # node 0 is mid-shard now
                    exitcode = nodes.terminate(0)
                    worker.join(timeout=30)
                    assert not worker.is_alive()
                    # graceful: in-flight answered, clean exit code
                    assert exitcode == 0
                    with AStoreEngine(ssb_db, EngineOptions(
                            parallel_backend="serial",
                            use_cache=False)) as serial:
                        assert client_rows(results[0]) == client_rows(
                            serial.query(SQL_YEAR))
                # ...and it deregistered instead of reading as a death
                wait_until(lambda: addr0 not in server.view.states(),
                           timeout=5.0, message="graceful deregistration")
                moves = [(old, new)
                         for addr, old, new, _ in server.view.transitions
                         if addr == addr0]
                assert moves[-1][1] == ""  # a leave, not a death
                assert ("suspect", "dead") not in moves

    def test_idle_sigterm_exits_zero(self, ssb_path):
        with MembershipServer(probe_seconds=0) as server:
            with LocalNodes(ssb_path, count=1,
                            membership=server.address) as nodes:
                assert nodes.terminate(0) == 0
                assert server.view.states() == {}


class TestHedgedRequests:
    def test_slow_node_is_hedged_to_a_survivor(self, ssb_path, ssb_db):
        with LocalNodes(ssb_path, count=2,
                        chaos=["delay@node.run:1x0=0.6", ""]) as nodes:
            with AStoreEngine(ssb_db, EngineOptions(
                    parallel_backend="remote",
                    remote_nodes=nodes.addresses, use_cache=False,
                    node_timeout=15.0, node_hedge=0.15)) as engine:
                result = engine.query(SQL_YEAR)
                with AStoreEngine(ssb_db, EngineOptions(
                        parallel_backend="serial",
                        use_cache=False)) as serial:
                    assert client_rows(result) == client_rows(
                        serial.query(SQL_YEAR))
                backend = engine._shard_backend
                assert backend.counters["hedges"] >= 1
                assert backend.counters["hedge_wins"] >= 1
                # a slow node is raced, not declared dead
                assert result.stats.remote_nodes_lost == 0
            assert nodes.shutdown()


class TestOverloadFrontDoor:
    def test_chaos_admit_forces_a_structured_shed(self):
        import asyncio

        db = build_tiny_star()
        with AStoreEngine(db, EngineOptions(parallel_backend="serial",
                                            use_cache=False)) as probe:
            expected = [list(row) for row in probe.query(SQL_YEAR).rows()]
        install_chaos("error@coordinator.admit:1")

        async def main():
            engine = AsyncEngine(db)
            server = await serve_tcp(engine, "127.0.0.1", 0)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"sql": SQL_YEAR, "id": 1}).encode()
                         + b"\n")
            await writer.drain()
            shed = json.loads(await reader.readline())
            assert shed["id"] == 1 and shed["overloaded"] is True
            assert "error" in shed and "rows" not in shed
            # the rule is spent: the retry is admitted and exact
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

    def test_max_pending_sheds_but_accepted_requests_stay_exact(self):
        import asyncio

        db = build_tiny_star()
        with AStoreEngine(db, EngineOptions(parallel_backend="serial",
                                            use_cache=False)) as probe:
            expected = [list(row) for row in probe.query(SQL_YEAR).rows()]
        # every admitted request stalls 0.5 s inside the engine, so the
        # second arrival finds max_pending=1 already in flight
        install_chaos("delay@serve.request:1x0=0.5")

        async def main():
            engine = AsyncEngine(db, EngineOptions(
                parallel_backend="serial", use_cache=False))
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

    def test_serve_over_membership_backend_answers_exact(self, ssb_path,
                                                         ssb_db, ssb_truth):
        import asyncio

        with MembershipServer(stamps_fn=lambda: database_stamp(ssb_db),
                              probe_seconds=0.1) as membership:
            with LocalNodes(ssb_path, count=2,
                            membership=membership.address) as nodes:
                async def main():
                    engine = AsyncEngine(ssb_db, EngineOptions(
                        parallel_backend="remote",
                        membership=membership.address,
                        use_cache=False, node_timeout=15.0))
                    server = await serve_tcp(engine, "127.0.0.1", 0)
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(
                        host, port)
                    writer.write(json.dumps(
                        {"sql": SSB_QUERIES["Q1.1"], "id": 1}).encode()
                        + b"\n")
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    writer.close()
                    await server.stop()
                    await engine.aclose()
                    return response

                response = asyncio.run(main())
                rows = json.loads(json.dumps(
                    [[str(v) for v in row] for row in response["rows"]]))
                assert rows == ssb_truth["Q1.1"]
                assert nodes.shutdown()


class TestStampLaneReconnect:
    def test_lane_survives_a_dropped_coordinator_socket(self, tmp_path):
        db = build_tiny_star()
        path = str(tmp_path / "tiny.npz")
        save_database(db, path)
        with LocalNodes(path, count=1) as nodes:
            link = _NodeLink(nodes.addresses[0])
            assert link.request(("stamps", (("lineorder", 7),)),
                                timeout=5.0) == ("ok",)
            # the coordinator's socket drops; the lane is node state
            link.reset()
            response = link.request(("lane",), timeout=5.0)
            assert response[0] == "ok"
            assert response[1]["lineorder"] == 7
            link.reset()
            assert nodes.shutdown()

    def test_chaos_dropped_send_reconnects_with_counts_retained(
            self, tmp_path):
        db = build_tiny_star()
        path = str(tmp_path / "tiny.npz")
        save_database(db, path)
        with LocalNodes(path, count=1) as nodes:
            link = _NodeLink(nodes.addresses[0])
            install_chaos("drop@coordinator.send:2")
            assert link.request(("stamps", (("lineorder", 9),)),
                                timeout=5.0) == ("ok",)
            with pytest.raises(ChaosDrop):
                link.request(("lane",), timeout=5.0)
            link.reset()  # exactly what _request_shard does on failure
            response = link.request(("lane",), timeout=5.0)
            assert response == ("ok", {"lineorder": 9})
            link.reset()
            assert nodes.shutdown()


class TestAtexitReaper:
    def test_interpreter_exit_reaps_unclosed_nodes(self, tmp_path):
        db = build_tiny_star()
        path = str(tmp_path / "tiny.npz")
        save_database(db, path)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {src!r})
            from repro.engine.distributed import LocalNodes
            nodes = LocalNodes({path!r}, count=1)
            print(nodes.nodes[0].pid, flush=True)
            # exit WITHOUT close(): the atexit reaper must kill the node
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        pid = int(proc.stdout.strip().split()[-1])

        def gone():
            try:
                os.kill(pid, 0)
            except OSError:
                return True
            return False

        wait_until(gone, timeout=10.0, message="node process reaped")
