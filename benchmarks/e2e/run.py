#!/usr/bin/env python3
"""The A-Store end-to-end benchmark driver (see README.md beside this file).

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out FILE]

One invocation sets up a workload, warms it, times it for ``--seconds`` with
tracing off, checks every answer against a reference engine, prints every
end-to-end metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace`` is a separate,
fixed-work run that prints the per-layer metrics instead and writes its spans
to ``out/trace_<workload>.json``.  Names, units and bounds come from
``BENCHMARK.json``; a metric this file computes that is not listed there is an
error.  Layers are measured from outside, through public functions only.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as W  # noqa: E402 - after the path set-up above
from spans import (  # noqa: E402
    Spans,
    clock,
    mean_ms,
    self_times,
    timed,
    unattributed_ratio,
)

#: data scale per workload (sized for 2 cores; the data seed is W.DATA_SEED)
SCALE = {"scan_serial": 1.0, "scan_process2": 1.0, "serve_adhoc": 0.1,
         "mixed_rw": 0.3}
SMOKE_SCALE = 0.01
#: callers the workload itself keeps busy: subtracted from the 1-minute load
#: before the ``noisy`` check (at the start too — back-to-back runs inherit it)
OWN_LOAD = {"scan_serial": 1, "scan_process2": 2, "serve_adhoc": 2,
            "mixed_rw": 1}
WARMUP_FLIGHTS = 3
#: engine/server bring-up + warm-up is repeated and its median reported, so
#: ``setup_s`` is steadier than a single cold start
BRINGUPS = 3
SERVE_CONNECTIONS = 2
SERVE_WARMUP_ADHOC = 20
#: fixed work of a ``--trace`` pass per second of ``--seconds`` (about a third
#: of what the untraced window completes), so its counts repeat exactly
TRACE_FLIGHTS_PER_S = {"scan_serial": 1.2, "scan_process2": 0.6}
TRACE_REQUESTS_PER_S = 50       # per connection
TRACE_EPOCHS_PER_S = 0.2
REFERENCE_FLIGHTS = 5
PLAN_PROBE_SQLS = 100           # distinct ad-hoc texts the planning probe times


# -- small helpers --------------------------------------------------------------


def canonical(rows: Sequence[Sequence]) -> List[tuple]:
    """Rows as sorted tuples — exact integers, order-insensitive."""
    return sorted(tuple(row) for row in rows)


def p95(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


class Tally:
    """Operations of one measured pass: latencies, timed seconds, verdicts."""

    def __init__(self) -> None:
        self.query_ms: List[float] = []
        self.write_ms: List[float] = []
        self.timed_s = 0.0
        self.failed = 0
        self.rounds = 0                 # flights, epochs or connections
        self.stats: List = []           # ExecutionStats of traced queries

    @property
    def attempted(self) -> int:
        return len(self.query_ms) + len(self.write_ms)

    def record(self, samples: List[float], seconds: float, ok: bool) -> None:
        samples.append(1e3 * seconds)
        self.timed_s += seconds
        self.failed += not ok

    @property
    def queries_per_s(self) -> float:
        return len(self.query_ms) / self.timed_s


class Checker:
    """Expected rows from a reference engine (serial, no cache, no pruning)
    over the same database state, computed outside every timed window.  With
    *oracle* (smoke scale) the independent ``DenormalizedEngine`` must agree
    too.  ``static=False`` recomputes per call because the data mutates."""

    def __init__(self, db, static: bool, oracle: bool):
        from repro.engine import AStoreEngine, EngineOptions

        self.db, self.static, self.oracle = db, static, oracle
        self.reference = AStoreEngine(db, EngineOptions(
            parallel_backend="serial", workers=1, use_cache=False,
            use_pruning=False))
        self._memo: Dict[str, List[tuple]] = {}
        self._wide = None

    def mutated(self) -> None:
        self._wide = None

    def expected(self, sql: str) -> List[List[tuple]]:
        """Every oracle's canonical rows for *sql* (one or two lists)."""
        if self.static and sql in self._memo:
            return self._memo[sql]
        answers = [canonical(self.reference.query(sql).rows())]
        if self.oracle:
            from repro.baselines import DenormalizedEngine

            if self._wide is None:
                # materialize_universal copies deleted slots too, so mirror
                # the fact table's deletion vector onto the wide table
                self._wide = DenormalizedEngine(self.db)
                dead = ~self.db.table("lineorder").live_mask()
                self._wide.wide.table("universal").delete(dead.nonzero()[0])
            answers.append(canonical(self._wide.query(sql).rows()))
        if self.static:
            self._memo[sql] = answers
        return answers

    def ok(self, sql: str, rows: Sequence[Sequence]) -> bool:
        got = canonical(rows)
        return all(got == want for want in self.expected(sql))


# -- process hygiene and memory -------------------------------------------------


def descendants(root: int) -> List[int]:
    """Live descendant pids of *root*, from ``/proc``."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue    # exited while we listed
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            if state != "Z":
                parent_of[int(entry)] = int(ppid)
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found += kids
        frontier += kids
    return found


def is_resource_tracker(pid: int) -> bool:
    """multiprocessing's helper: lives until the interpreter exits."""
    try:
        return b"resource_tracker" in Path("/proc", str(pid),
                                           "cmdline").read_bytes()
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Sum of peak resident sets of the driver and every live child."""
    total_kb = 0
    for pid in [os.getpid()] + descendants(os.getpid()):
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def shm_segments() -> set:
    """Shared-memory segments the program creates (arena / shared store)."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(("astore-", "psm_"))}


def leaks(shm_before: set) -> List[str]:
    """Surviving child processes and new segments — a leak fails the run."""
    from repro.core.arena import ColumnArena

    deadline = time.monotonic() + 2.0
    while True:
        alive = [pid for pid in descendants(os.getpid())
                 if not is_resource_tracker(pid)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    found = [f"child process {pid} survived" for pid in alive]
    found += [f"shared segment {name} left behind"
              for name in sorted(shm_segments() - shm_before)]
    found += [f"arena {name} still open" for name in ColumnArena.live_segments()]
    return found


def reap_resource_tracker() -> None:
    """Registered before multiprocessing is imported, so it runs after its
    exit handlers: stop the tracker process and wait for it, so that no
    process this benchmark started outlives it."""
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


# -- in-process workloads: scan_serial, scan_process2, mixed_rw ------------------


def run_query(engine, sql: str, tally: Tally, checker: Checker,
              spans: Optional[Spans]) -> None:
    """One checked query: SQL text in, materialised ``rows()`` out."""
    if spans is None:
        seconds, rows = timed(lambda: engine.query(sql).rows())
    else:
        with spans.span("query") as span:
            with spans.span("executor.compile"):
                bound = engine.compile(sql)
            with spans.span("executor.run_compiled"):
                result = engine.run_compiled(bound)
            with spans.span("result.rows"):
                rows = result.rows()
        seconds = span["end"] - span["start"]
        tally.stats.append(result.stats)
    tally.record(tally.query_ms, seconds, checker.ok(sql, rows))


def run_flight(engine, sqls: Sequence[str], tally: Tally, checker: Checker,
               spans: Optional[Spans] = None) -> None:
    for sql in sqls:
        run_query(engine, sql, tally, checker, spans)
    gc.collect()    # between flights, never inside a timed operation


def bring_up(db, make_engine: Callable, warm: Callable) -> Tuple[object, float]:
    """Build the engine and warm it, ``BRINGUPS`` times from a cold cache;
    returns the last (warm) engine and the median bring-up seconds."""
    from repro.engine import query_cache_for
    from repro.engine.cache import parse_cached

    spent, engine = [], None
    for _ in range(BRINGUPS):
        if engine is not None:
            engine.close()
        query_cache_for(db).clear()
        parse_cached.cache_clear()
        start = clock()
        engine = make_engine()
        try:
            warm(engine)
        except BaseException:
            engine.close()
            raise
        spent.append(clock() - start)
    return engine, statistics.median(spent)


def apply_write(db, item: dict) -> Tuple[str, Callable]:
    """Prepare one scheduled write (row choice happens here, untimed) and
    return its span name and the call that performs it."""
    import numpy as np

    rng = np.random.default_rng(item["draw"])
    fact, customer = db.table("lineorder"), db.table("customer")
    if item["op"] == "customer":
        rows = min(W.CUSTOMER_ROWS_PER_WRITE, customer.num_rows)
        positions = rng.choice(customer.num_rows, rows, replace=False)
        region = W.REGIONS[int(rng.integers(len(W.REGIONS)))]
        return "table.update_dimension", lambda: customer.update(
            positions, {"c_region": [region] * rows})
    live = np.flatnonzero(fact.live_mask())
    positions = rng.choice(live, min(W.FACT_ROWS_PER_WRITE, len(live)),
                           replace=False)
    if item["op"] == "append":
        # re-inserting sampled rows keeps every AIR reference valid
        rows = fact.gather(positions)
        return "table.insert", lambda: fact.insert(rows)
    if item["op"] == "update":
        revenue = rng.integers(100_000, 10_000_000, len(positions))
        return "table.update", lambda: fact.update(
            positions, {"lo_revenue": revenue})
    return "table.delete", lambda: fact.delete(positions)


def timed_write(name: str, call: Callable, tally: Tally, checker: Checker,
                spans: Optional[Spans]) -> None:
    """One write op (a ``Table`` call or a compaction), timed on its own."""
    if spans is None:
        seconds, _ = timed(call)
    else:
        with spans.span("write") as span:
            with spans.span(name) as inner:
                info = call()
        seconds = span["end"] - span["start"]
        if name == "compact":
            inner["dropped"] = info["dropped"]
    tally.record(tally.write_ms, seconds, True)
    checker.mutated()


def run_cycle(engine, item: dict, canonical_sql: Dict[str, str], tally: Tally,
              checker: Checker, spans: Optional[Spans]) -> None:
    """One ``mixed_rw`` cycle: a write, then its queries."""
    timed_write(*apply_write(engine.db, item), tally, checker, spans)
    for query_id in item["queries"]:
        run_query(engine, canonical_sql[query_id], tally, checker, spans)
    gc.collect()


def in_process(name: str, args, canonical_sql: Dict[str, str]) -> dict:
    from repro.datagen import generate_ssb
    from repro.engine import AStoreEngine, EngineOptions

    process = name == "scan_process2"
    mixed = name == "mixed_rw"
    workers = 2 if process else 1
    options = EngineOptions(
        parallel_backend="process" if process else "serial", workers=workers)
    ids = sorted(canonical_sql)
    generate_s, db = timed(lambda: generate_ssb(sf=args.sf, seed=W.DATA_SEED))
    checker = Checker(db, static=not mixed, oracle=args.smoke)

    first_flights: List[float] = []     # one per bring-up

    def warm(engine) -> None:
        flights = [timed(lambda: [engine.query(canonical_sql[q]).rows()
                                  for q in ids])[0]
                   for _ in range(WARMUP_FLIGHTS)]
        first_flights.append(flights[0])

    engine, bringup_s = bring_up(db, lambda: AStoreEngine(db, options), warm)
    try:
        if mixed:
            schedule = W.mutation_schedule(args.seed, ids)

            def one_round(tally, spans=None):
                for _ in range(W.CYCLES_PER_EPOCH):
                    run_cycle(engine, next(schedule), canonical_sql, tally,
                              checker, spans)
                # every epoch ends with a compaction, timed as a write op
                timed_write("compact", lambda: db.compact(
                    "lineorder", store=engine.cache), tally, checker, spans)
                tally.rounds += 1
            trace_rounds = max(1, round(TRACE_EPOCHS_PER_S * args.seconds))
        else:
            orders = W.flight_orders(args.seed, ids)

            def one_round(tally, spans=None):
                run_flight(engine, [canonical_sql[q] for q in next(orders)],
                           tally, checker, spans)
                tally.rounds += 1
            trace_rounds = max(2, round(TRACE_FLIGHTS_PER_S[name]
                                        * args.seconds))

        if not args.trace:
            tally = Tally()
            while tally.timed_s < args.seconds:
                one_round(tally)
            return outcome(end_to_end(tally, generate_s + bringup_s,
                                      peak_rss_mb()), tally)

        import layers as L

        untraced, traced, spans = Tally(), Tally(), Spans()
        for _ in range(trace_rounds):
            one_round(untraced)
        before = engine.cache.counters()
        invalidated = L.invalidations(engine.cache)
        for _ in range(trace_rounds):
            one_round(traced, spans)
        values = L.cache_tiers(engine.cache, before, invalidated)
        values.update(L.execution(
            traced.stats, mean_ms(spans.records, "executor.run_compiled"),
            workers))
        values.update({
            "datagen.generate_s": generate_s,
            "warmup.first_flight_ms": 1e3 * statistics.median(first_flights),
            "trace.overhead_ratio":
                untraced.queries_per_s / traced.queries_per_s - 1.0,
        })
        if mixed:
            values.update(write_layers(engine, traced, spans))
        values.update(L.storage(db))
        values.update(L.joins(db))
        values.update(L.plan_pickle(engine, list(canonical_sql.values())))
        if process:
            values.update(L.arena(db, engine.cache))
            values.update(scaling(db, canonical_sql, traced, trace_rounds))
        values.update(L.planning(engine, list(canonical_sql.values()), spans))
        values["trace.unattributed_ratio"] = unattributed_ratio(
            spans.records, roots=["query", "write"])
        write_trace(name, args, spans)
        return outcome(values, traced, also=untraced)
    finally:
        engine.close()


def write_layers(engine, traced: Tally, spans: Spans) -> dict:
    """``mixed_rw`` only: the write path's layers, per call of 1 000 rows."""
    from repro.core.statistics import rebuild_zone_maps

    # after one more write, so that every summary is stale and is rebuilt
    fact = engine.db.table("lineorder")
    live = fact.live_mask().nonzero()[0][:1]
    fact.update(live, {"lo_revenue": fact["lo_revenue"].take(live)})
    rebuild_s, _ = timed(lambda: rebuild_zone_maps(
        engine.db, "lineorder", engine.cache))
    return {
        "table.insert_ms": mean_ms(spans.records, "table.insert"),
        "table.update_ms": mean_ms(spans.records, "table.update"),
        "table.delete_ms": mean_ms(spans.records, "table.delete"),
        "table.write_ms_p50": statistics.median(traced.write_ms),
        "table.write_ms_p95": p95(traced.write_ms),
        "compaction.compact_ms": mean_ms(spans.records, "compact"),
        "compaction.rows_dropped": sum(r.get("dropped", 0)
                                       for r in spans.records),
        "statistics.zone_rebuild_ms": 1e3 * rebuild_s,
    }


def scaling(db, canonical_sql: Dict[str, str], traced: Tally,
            flights: int) -> dict:
    """``scan_process2`` only: the same flights on the serial and the
    2-thread backend, in this process, against the traced process flights."""
    from repro.engine import AStoreEngine, EngineOptions

    def flight_ms(backend: str, workers: int) -> float:
        engine = AStoreEngine(db, EngineOptions(parallel_backend=backend,
                                                workers=workers))
        try:
            spent = [timed(lambda: [engine.query(sql).rows()
                                    for sql in canonical_sql.values()])[0]
                     for _ in range(1 + REFERENCE_FLIGHTS)]
        finally:
            engine.close()
        return 1e3 * statistics.median(spent[1:])

    process_ms = sum(traced.query_ms) / flights
    return {
        "sharding.parallel_efficiency":
            flight_ms("serial", 1) / (2 * process_ms),
        "sharding.thread2_flight_ms": flight_ms("thread", 2),
    }


# -- serve_adhoc -----------------------------------------------------------------


class Server:
    """``python -m repro.cli serve`` as a subprocess, stopped with SHUTDOWN."""

    def __init__(self, archive: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(archive),
             "--port", "0"], env=env, stdout=subprocess.PIPE, text=True)
        try:
            banner = self.process.stdout.readline()
            self.port = int(banner.split("listening on ")[1].split()[0]
                            .rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"server did not start: {banner!r}") from None

    def connect(self):
        sock = socket.create_connection(("127.0.0.1", self.port))
        link = sock.makefile("rwb")
        sock.close()    # the connection now lives and dies with the file object
        return link

    def admin(self, word: str) -> dict:
        with self.connect() as link:
            link.write(word.encode() + b"\n")
            link.flush()
            return json.loads(link.readline())

    def stop(self) -> None:
        """SHUTDOWN, then wait; kill only if that fails."""
        try:
            if self.process.poll() is None:
                self.admin("SHUTDOWN")
            self.process.wait(timeout=15)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


def ask(link, sql: str) -> Tuple[float, dict, int]:
    """One request over an open connection: RTT seconds (reply parsed, rows
    materialised), the reply, and its size in bytes."""
    start = clock()
    link.write(json.dumps({"sql": sql}).encode() + b"\n")
    link.flush()
    line = link.readline()
    reply = json.loads(line)
    return clock() - start, reply, len(line)


def serve_clients(server: Server, streams: List[Iterator[str]],
                  stop: Callable[[int, float], bool], trace: bool
                  ) -> Tuple[List[list], float, List[Spans]]:
    """Closed loop: one thread per connection, each sending its next request
    only after the previous reply.  ``stop(sent, elapsed)`` ends a caller.
    Returns per-connection ``(sql, rtt, reply, bytes)`` lists and the wall."""
    links = [server.connect() for _ in streams]
    replies: List[list] = [[] for _ in streams]
    logs = [Spans() for _ in streams]
    errors: List[BaseException] = []

    def caller(index: int) -> None:
        link, stream, log = links[index], streams[index], logs[index]
        try:
            while not stop(len(replies[index]), clock() - start):
                sql = next(stream)
                if trace:
                    with log.span("rtt") as span:
                        rtt, reply, size = ask(link, sql)
                    if "ms" in reply:
                        log.shadow("server", span, reply["ms"] / 1e3)
                else:
                    rtt, reply, size = ask(link, sql)
                replies[index].append((sql, rtt, reply, size))
        except BaseException as exc:  # re-raised in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(i,))
               for i in range(len(streams))]
    start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - start
    for link in links:
        link.close()
    if errors:
        raise errors[0]
    return replies, wall, logs


def check_replies(replies: List[list], checker: Checker, wall: float) -> Tally:
    """Fold every connection's replies into a tally; an error, a refusal or a
    wrong answer is a failed operation.  ``timed_s`` is the window's wall."""
    tally = Tally()
    for sql, rtt, reply, _ in (r for one in replies for r in one):
        ok = "rows" in reply and checker.ok(sql, reply["rows"])
        tally.record(tally.query_ms, rtt, ok)
    tally.timed_s = wall
    tally.rounds = len(replies)
    return tally


def serve_adhoc(name: str, args, canonical_sql: Dict[str, str]) -> dict:
    from repro.datagen import generate_ssb
    from repro.io.persist import load_database, save_database

    OUT.mkdir(exist_ok=True)
    archive = OUT / f"serve_sf{args.sf}.npz"
    generate_s, db = timed(lambda: generate_ssb(sf=args.sf, seed=W.DATA_SEED))
    save_s, _ = timed(lambda: save_database(db, archive))
    checker = Checker(db, static=True, oracle=args.smoke)

    def streams(seed) -> List[Iterator[str]]:
        return [W.adhoc_stream(seed, c, canonical_sql)
                for c in range(SERVE_CONNECTIONS)]

    def warm(server: Server) -> None:
        # every canonical query once (so repeats hit the result tier), then a
        # few ad-hoc ones per connection from a stream no --seed produces
        with server.connect() as link:
            for sql in canonical_sql.values():
                ask(link, sql)
        serve_clients(server, streams("warmup"),
                      lambda sent, _: sent >= SERVE_WARMUP_ADHOC, False)

    server, spent = None, []
    try:
        for _ in range(BRINGUPS):
            if server is not None:
                server.stop()
            start = clock()
            server = Server(archive)
            warm(server)
            spent.append(clock() - start)
        setup_s = generate_s + save_s + statistics.median(spent)

        if not args.trace:
            replies, wall, _ = serve_clients(
                server, streams(args.seed),
                lambda _, elapsed: elapsed >= args.seconds, False)
            rss = peak_rss_mb()     # before the checks below allocate
            tally = check_replies(replies, checker, wall)
            return outcome(end_to_end(tally, setup_s, rss), tally)

        import layers as L

        quota = max(20, round(TRACE_REQUESTS_PER_S * args.seconds))
        mine = streams(args.seed)
        plain, plain_wall, _ = serve_clients(
            server, mine, lambda sent, _: sent >= quota, False)
        before = server.admin("STATS")
        replies, wall, logs = serve_clients(
            server, mine, lambda sent, _: sent >= quota, True)
        after = server.admin("STATS")
        untraced = check_replies(plain, checker, plain_wall)
        traced = check_replies(replies, checker, wall)
        spans = logs[0]
        for log in logs[1:]:
            spans.merge(log)
        values = serve_layers(replies, before, after)
        values.update({
            "datagen.generate_s": generate_s,
            "persist.save_s": save_s,
            "persist.archive_bytes": archive.stat().st_size,
            "persist.load_s": timed(lambda: load_database(archive))[0],
            "trace.overhead_ratio":
                untraced.queries_per_s / traced.queries_per_s - 1.0,
        })
        values.update(L.storage(db))
        values.update(L.joins(db))
        values.update(replay(db, [r[0] for r in replies[0]], checker, spans))
        values["trace.unattributed_ratio"] = unattributed_ratio(
            spans.records, roots=["query"])
        write_trace(name, args, spans)
        return outcome(values, traced, also=untraced)
    finally:
        if server is not None:
            server.stop()
        archive.unlink(missing_ok=True)


def serve_layers(replies: List[list], before: dict, after: dict) -> dict:
    """Client RTT split by the reply's ``cached`` flag, the server's own
    ``ms``, re-encoding the same payload here, and the ``STATS`` deltas."""
    flat = [r for one in replies for r in one if "rows" in r[2]]
    hits = [1e3 * rtt for _, rtt, reply, _ in flat if reply["cached"]]
    misses = [1e3 * rtt for _, rtt, reply, _ in flat if not reply["cached"]]
    encode_s = sum(timed(lambda r=reply: json.dumps(r, default=str))[0]
                   for _, _, reply, _ in flat)

    def tier(name: str, field: str) -> int:
        return after["cache"][name][field] - before["cache"][name][field]

    values = {}
    for name in ("plan", "leaf", "axis", "zone"):
        lookups = tier(name, "hits") + tier(name, "misses")
        values[f"cache.{name}_hit_ratio"] = (
            tier(name, "hits") / lookups if lookups else 0.0)
    # per request: a miss consults the result tier twice (event loop, then
    # executor), so hits / lookups would understate what callers see
    values["cache.result_hit_ratio"] = tier("result", "hits") / max(
        1, after["requests"] - before["requests"])
    values.update({
        "serve.hit_rtt_ms": statistics.median(hits) if hits else 0.0,
        "serve.miss_rtt_ms": statistics.median(misses) if misses else 0.0,
        "serve.server_ms": statistics.fmean(r[2]["ms"] for r in flat),
        "serve.wire_overhead_ms": statistics.fmean(
            1e3 * r[1] - r[2]["ms"] for r in flat),
        "serve.encode_ms": 1e3 * encode_s / len(flat),
        "serve.response_bytes": statistics.fmean(r[3] for r in flat),
        "serve.shed": after["shed"] - before["shed"],
        "serve.failures": after["failures"] - before["failures"],
    })
    return values


def replay(db, sqls: List[str], checker: Checker, spans: Spans) -> dict:
    """Connection 0's traced requests again through an in-process engine
    configured like the server's, for the compile / run / encode split the
    socket hides; then the planning probe over the distinct ad-hoc texts."""
    import layers as L
    from repro.engine import AStoreEngine, EngineOptions

    engine = AStoreEngine(db, EngineOptions(parallel_backend="serial",
                                            cache_results=True))
    tally = Tally()
    try:
        for sql in sqls:
            run_query(engine, sql, tally, checker, spans)
        values = L.execution(
            tally.stats, mean_ms(spans.records, "executor.run_compiled"), 1)
        values.update(L.cache_footprint(engine.cache))
        distinct = list(dict.fromkeys(sqls))[:PLAN_PROBE_SQLS]
        values.update(L.planning(engine, distinct, spans))
        return values
    finally:
        engine.close()


# -- results ---------------------------------------------------------------------


def end_to_end(tally: Tally, setup_s: float, rss: float) -> dict:
    return {
        "queries_per_s": tally.queries_per_s,
        "query_ms_p50": statistics.median(tally.query_ms),
        "query_ms_p95": p95(tally.query_ms),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def outcome(values: dict, tally: Tally, also: Optional[Tally] = None) -> dict:
    """One run's measured values and verdict counts, before they are matched
    to the spec.  *also* is a traced run's untraced pass: checked as well."""
    passes = [tally] if also is None else [tally, also]
    return {"values": values,
            "attempted": sum(one.attempted for one in passes),
            "failed": sum(one.failed for one in passes),
            "samples": {"query": len(tally.query_ms),
                        "write": len(tally.write_ms),
                        "rounds": tally.rounds}}


def write_trace(name: str, args, spans: Spans) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{name}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": args.seed,
        "self_seconds": self_times(spans.records),
        "spans": spans.records}))


def input_hashes(seed: int, canonical_sql: Dict[str, str]) -> dict:
    ids = sorted(canonical_sql)
    hashes = {"flights": W.digest(W.flight_orders(seed, ids)),
              "mutations": W.digest(W.mutation_schedule(seed, ids))}
    for connection in range(SERVE_CONNECTIONS):
        hashes[f"sql_stream_{connection}"] = W.digest(
            W.adhoc_stream(seed, connection, canonical_sql))
    return hashes


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def match_spec(kind: str, values: dict, spec: dict) -> dict:
    """``{name: {value, unit}}`` for every metric the spec lists under *kind*.
    End-to-end metrics must all be present; a layer the workload does not
    exercise reports 0.  A computed name the spec lacks is an error."""
    listed = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = sorted(set(values) - set(listed))
    missing = sorted(set(listed) - set(values)) if kind == "end_to_end" else []
    if unknown or missing:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"unknown {unknown}, missing {missing}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in listed.items()}


def run_workload(name: str, args, spec: dict) -> dict:
    """Set up, measure, check and tear down one workload (*args*: seed,
    seconds, smoke, trace, sf); returns the result document (``--out`` appends
    it to a file, one JSON object per line)."""
    import numpy
    from repro.workloads.ssb_queries import SSB_QUERIES

    canonical_sql = {q: " ".join(sql.split()) for q, sql in SSB_QUERIES.items()}
    cores = len(os.sched_getaffinity(0))
    load_start = os.getloadavg()[0]
    shm_before = shm_segments()
    gc.collect()
    gc.disable()    # collections happen between flights, by hand
    try:
        runner = serve_adhoc if name == "serve_adhoc" else in_process
        result = runner(name, args, canonical_sql)
    finally:
        gc.enable()
    leaked = leaks(shm_before)
    load_end = os.getloadavg()[0]
    kind = "per_layer" if args.trace else "end_to_end"
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "smoke": args.smoke, "scale_factor": args.sf,
        "correct": result["failed"] == 0 and not leaked,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": match_spec(kind, result["values"], spec),
        "samples": result["samples"], "leaks": leaked,
        "input_sha256": input_hashes(args.seed, canonical_sql),
        "header": {
            "cores": cores, "load_start": load_start, "load_end": load_end,
            "noisy": max(load_start, load_end) - OWN_LOAD[name] > cores / 2,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "data_seed": W.DATA_SEED, "claim": None,
            "gc": "disabled; collected between flights / cycles, never "
                  "inside a timed operation",
            "counts": "exact for a given seed and --seconds on the "
                      "single-caller workloads; serve_adhoc interleaves "
                      "two callers",
        },
    }


def report(document: dict) -> None:
    """Every metric by name with its unit, then the one-line result."""
    samples = document["samples"]
    print(f"# {document['workload']} sf={document['scale_factor']} "
          f"seed={document['seed']} trace={document['trace']} "
          f"rounds={samples['rounds']} query samples={samples['query']} "
          f"write samples={samples['write']}"
          f"{' NOISY' if document['header']['noisy'] else ''}")
    for name, metric in document["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6f} {metric['unit']}")
    for leak in document["leaks"]:
        print(f"LEAK: {leak}", file=sys.stderr)
    print(json.dumps({key: document[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="default: each workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help=f"timed window (default {spec['run_seconds']}, "
                             f"0.5 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run with spans")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at sf={SMOKE_SCALE}, both "
                             f"oracles, untraced then traced")
    parser.add_argument("--out", type=Path,
                        help="append each result document to this file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])
    try:
        import repro  # noqa: F401 - fail before any output if src/ is absent
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    status = 0
    for name in [args.workload] if args.workload else names:
        for trace in (0, 1) if args.smoke else (args.trace,):
            document = run_workload(name, argparse.Namespace(
                seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                trace=trace, sf=SMOKE_SCALE if args.smoke else SCALE[name]),
                spec)
            report(document)
            if args.out:
                with args.out.open("a") as sink:
                    sink.write(json.dumps(document) + "\n")
            if not document["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    # the process backend spawns: this file must be importable without effect
    atexit.register(reap_resource_tracker)
    sys.exit(main())
