"""Async serving: many concurrent queries over one engine and shard pool.

The ROADMAP's north star is serving heavy traffic from many users; the
portable bound plans of :mod:`repro.engine.sharding` already decouple
compilation from execution, and the mutation-stamped
:class:`~repro.engine.cache.QueryCache` already makes repeats cheap.
This module adds the missing entry point: an :class:`AsyncEngine` that
accepts many concurrent ``await engine.query(...)`` calls on one event
loop and multiplexes them over one :class:`~repro.engine.executor
.AStoreEngine` — and therefore over its database's one persistent
:class:`~repro.engine.sharding.ProcessShardBackend` pool when the
engine is configured with ``parallel_backend="process"``.

Concurrency model (see also ``docs/architecture.md``):

* **The event loop never blocks.**  Result-tier hits are answered
  directly on the loop (a stamped dictionary lookup); everything else
  runs on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`.
  With the ``process`` backend those executor threads block only on
  ``pool.map`` — the actual scanning happens in the shared worker
  pool, whose task queue interleaves the shards of every in-flight
  query.
* **Per-run scratch leases.**  Each executor run takes a
  :func:`~repro.engine.scratch.lease_pool` so no two in-flight
  pipelines can ever alias a scratch buffer, while the sync backends
  keep their thread-local fast path.
* **Served results are frozen.**  Every caller gets a private
  :meth:`~repro.engine.result.QueryResult.served_copy` over immutable
  column arrays, so concurrent callers cannot observe each other's
  mutations (and cannot corrupt the cache).
* **Single-flight cold queries.**  With the serving tier enabled,
  concurrent *identical* queries coalesce: one leader executes, the
  followers await it and then answer from the result tier — 64 clients
  asking the same cold question cost one execution, not 64.
* **Cancellation is safe.**  Cancelling an ``await engine.query(...)``
  abandons the *await*; the underlying run (if already started) drains
  harmlessly on its executor thread and the shard pool stays reusable.

:func:`serve_tcp` wraps an :class:`AsyncEngine` in a minimal
newline-delimited TCP protocol (one JSON — or raw SQL — request per
line, one JSON response per line) used by ``astore serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core import Database
from ..errors import AStoreError
from .executor import AStoreEngine, EngineOptions
from .result import QueryResult
from .scratch import lease_pool


def parse_deadline(value) -> float:
    """A request deadline as a number ``>= 0`` (0 = none).  A negative
    or non-finite value raises ``ValueError``: ``asyncio.wait_for``
    would time out at once on it, turning a malformed request into a
    cancelled query."""
    deadline = float(value)
    if not 0.0 <= deadline < math.inf:  # NaN fails every comparison
        raise ValueError(
            f"deadline must be a finite number >= 0, got {value!r}")
    return deadline


def default_concurrency() -> int:
    """Executor threads for an :class:`AsyncEngine` (bounded: enough to
    keep a shard pool saturated and hide blocking, few enough that a
    client burst cannot spawn unbounded threads)."""
    return min(32, 4 * (os.cpu_count() or 1) + 4)


@dataclass
class ServeStats:
    """Cumulative counters of one :class:`AsyncEngine`."""

    queries: int = 0            # completed await engine.query(...) calls
    served_on_loop: int = 0     # answered from the result tier, no executor
    coalesced: int = 0          # followers that rode a leader's execution
    executed: int = 0           # runs dispatched to the executor
    cancelled: int = 0          # awaits tore off before completion
    errors: int = 0             # runs that raised
    inflight: int = 0           # currently inside query()
    peak_inflight: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in (
            "queries", "served_on_loop", "coalesced", "executed",
            "cancelled", "errors", "inflight", "peak_inflight")}


class AsyncEngine:
    """Concurrent query serving over one sync engine, on one event loop.

    Construct with a database plus :class:`EngineOptions` (or pass a
    prebuilt ``engine``).  All concurrency is multiplexed: one
    underlying engine, one query cache, one shard backend (the
    database's).  ``await engine.query(sql)`` is safe to call from many
    tasks at once; use ``async with`` (or :meth:`aclose`) to drain the
    executor.  The worker pool and image of the process backend belong
    to the database and go when it is collected.

    The serving tier (``cache_results``) defaults **on** here — serving
    is what this class is for — but can be disabled through *options*.
    """

    def __init__(self, db: Database,
                 options: Optional[EngineOptions] = None,
                 engine: Optional[AStoreEngine] = None,
                 max_concurrency: Optional[int] = None):
        if engine is None:
            if options is None:  # serving default; explicit options win
                options = EngineOptions(parallel_backend="serial",
                                        cache_results=True)
            engine = AStoreEngine(db, options)
        elif options is not None:
            raise AStoreError(
                "pass either options or a prebuilt engine, not both "
                "(a prebuilt engine carries its own options)")
        self.engine = engine
        self.max_concurrency = max(1, int(max_concurrency
                                          or default_concurrency()))
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="astore-serve")
        self.stats = ServeStats()
        # single-flight: result-tier key -> marker future of the leader
        self._leaders: Dict[tuple, "asyncio.Future"] = {}
        self._closed = False

    # -- the serving entry point -------------------------------------------

    async def query(self, sql, snapshot: Optional[int] = None) -> QueryResult:
        """Compile (through the shared cache) and execute *sql*,
        yielding the event loop while any blocking work runs."""
        if self._closed:
            raise AStoreError("AsyncEngine is closed")
        stats = self.stats
        stats.inflight += 1
        stats.peak_inflight = max(stats.peak_inflight, stats.inflight)
        try:
            result = await self._query(sql, snapshot)
            stats.queries += 1
            return result
        except asyncio.CancelledError:
            stats.cancelled += 1
            raise
        finally:
            stats.inflight -= 1

    async def _query(self, sql, snapshot: Optional[int]) -> QueryResult:
        engine = self.engine
        serving = (engine.cache is not None
                   and engine.options.cache_results)
        if serving:
            # fast path: a stamped result-tier lookup answers on the
            # loop thread, no executor round-trip (the key is computed
            # once here and reused by every lookup below)
            key = engine.result_key(sql, snapshot)
            hit = engine.serve_cached(sql, snapshot, key=key)
            if hit is not None:
                self.stats.served_on_loop += 1
                return hit
            leader = self._leaders.get(key)
            if leader is not None:
                # follower: ride the leader's execution, then serve.
                # shield() so our caller's cancellation cannot cancel
                # the shared marker out from under other followers.
                with contextlib.suppress(Exception):
                    await asyncio.shield(leader)
                hit = engine.serve_cached(sql, snapshot, key=key)
                if hit is not None:
                    self.stats.coalesced += 1
                    return hit
                # leader failed, was cancelled pre-dispatch, or a
                # mutation invalidated its result: run our own
                return await self._execute(sql, snapshot)
            loop = asyncio.get_running_loop()
            marker = loop.create_future()
            self._leaders[key] = marker
            try:
                return await self._execute(sql, snapshot)
            finally:
                if self._leaders.get(key) is marker:
                    del self._leaders[key]
                if not marker.done():
                    marker.set_result(None)
        return await self._execute(sql, snapshot)

    async def _execute(self, sql, snapshot: Optional[int]) -> QueryResult:
        loop = asyncio.get_running_loop()
        self.stats.executed += 1
        try:
            return await loop.run_in_executor(
                self._executor, self._run_leased, sql, snapshot)
        except asyncio.CancelledError:
            raise
        except Exception:
            self.stats.errors += 1
            raise

    def _run_leased(self, sql, snapshot: Optional[int]) -> QueryResult:
        # a lease per pipeline run: interleaved executions can never
        # alias a scratch buffer, whatever thread they land on
        with lease_pool():
            return self.engine.query(sql, snapshot)

    # -- lifecycle ----------------------------------------------------------

    async def aclose(self) -> None:
        """Drain the executor and close the engine (the image and the
        worker pool of the process backend stay with the database)."""
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._shutdown_sync)

    def close(self) -> None:
        """Synchronous close (for non-async teardown paths)."""
        if self._closed:
            return
        self._closed = True
        self._shutdown_sync()

    def _shutdown_sync(self) -> None:
        self._executor.shutdown(wait=True)
        self.engine.close()

    async def __aenter__(self) -> "AsyncEngine":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()


# -- the line-protocol server -------------------------------------------------


@dataclass
class QueryServer:
    """A running ``astore serve`` instance (see :func:`serve_tcp`).

    Protocol: one request per line — either raw SQL or a JSON object
    ``{"sql": ..., "id": ...}`` — answered by one JSON line:
    ``{"id", "rows", "columns", "ms", "cached"}`` on success or
    ``{"id", "error"}`` on failure.  Admin lines: ``PING`` answers
    ``PONG``, ``STATS`` answers a JSON snapshot (pid, serve counters,
    cache tiers), ``SHUTDOWN`` stops the server after responding (the
    hook CI uses for a clean teardown), and a JSON object with an
    ``"update"`` or ``"compact"`` key applies a mutation or a
    compaction.  Stopping *drains*: requests already
    read when SHUTDOWN arrives finish and answer before their
    connections close; only idle connections are closed immediately.

    The **overload front door**: with ``max_pending`` set, a request
    arriving while that many are already in flight answers
    ``{"overloaded": true, "error": ...}`` immediately instead of
    queueing unboundedly — shedding is visible and cheap, queueing
    under overload is invisible and fatal.  Shed counts surface in
    ``STATS``.
    """

    engine: AsyncEngine
    #: the listening asyncio server
    server: Optional["asyncio.AbstractServer"] = None
    shutdown_event: "asyncio.Event" = field(default_factory=asyncio.Event)
    requests: int = 0
    failures: int = 0
    #: how long stop() waits for in-flight requests before closing them
    drain_seconds: float = 10.0
    #: server-wide per-request deadline in seconds (None = none); each
    #: request may override it with a ``"timeout_ms"`` field.  A request
    #: past its deadline answers ``{"timeout": true, "error": ...}``
    #: instead of pinning the connection.
    request_timeout: Optional[float] = None
    #: the overload front door: at most this many work requests may be
    #: in flight before new ones shed with ``{"overloaded": true}``
    #: instead of queueing unboundedly (0 = no bound)
    max_pending: int = 0
    #: requests shed by the front door
    shed: int = 0
    #: work requests currently admitted and executing
    _pending: int = 0
    #: open client connections — closed on stop, since (3.12.1+)
    #: ``Server.wait_closed`` blocks until every handler has exited and
    #: an idle client sitting in ``readline`` would pin it forever
    _writers: set = field(default_factory=set)
    #: connections with a request mid-flight (read but not yet answered)
    _busy: set = field(default_factory=set)

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` of the listening socket."""
        if self.server is None or not self.server.sockets:
            return ("", 0)
        return self.server.sockets[0].getsockname()[:2]

    async def wait_closed(self) -> None:
        """Block until SHUTDOWN (or :meth:`stop`), then tear down."""
        await self.shutdown_event.wait()
        await self.stop()

    async def stop(self, drain_seconds: Optional[float] = None) -> None:
        """Graceful drain: stop accepting, let every in-flight request
        answer (up to *drain_seconds*), then close and release."""
        self.shutdown_event.set()
        if self.server is not None:
            self.server.close()
        for writer in list(self._writers):  # wake idle readline() handlers
            if writer not in self._busy:
                writer.close()
        deadline = time.monotonic() + (self.drain_seconds
                                       if drain_seconds is None
                                       else drain_seconds)
        while self._busy and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        if self.server is not None:
            await self.server.wait_closed()
        await self.engine.aclose()

    async def _handle(self, reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        self._writers.add(writer)
        try:
            while not self.shutdown_event.is_set():
                line = await reader.readline()
                if not line:
                    break
                # busy from the moment a request line exists until its
                # response is flushed — stop() drains exactly this set
                self._busy.add(writer)
                try:
                    text = line.decode("utf-8", "replace").strip()
                    if not text:
                        continue
                    if text.upper() == "PING":
                        writer.write(b"PONG\n")
                        await writer.drain()
                        continue
                    if text.upper() == "STATS":
                        writer.write(_encode(self.stats_payload()))
                        await writer.drain()
                        continue
                    if text.upper() == "SHUTDOWN":
                        writer.write(b'{"ok": true, "shutdown": true}\n')
                        await writer.drain()
                        self.shutdown_event.set()
                        break
                    writer.write(await self._respond(text))
                    await writer.drain()
                finally:
                    self._busy.discard(writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to answer
        finally:
            self._busy.discard(writer)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def stats_payload(self) -> dict:
        """The ``STATS`` response: the server's serve/cache counters."""
        payload = {
            "pid": os.getpid(),
            "requests": self.requests,
            "failures": self.failures,
            "shed": self.shed,
            "pending": self._pending,
            "max_pending": self.max_pending,
            "serve": self.engine.stats.snapshot(),
        }
        cache = self.engine.engine.cache
        if cache is not None:
            payload["cache"] = {
                tier: {"hits": stats.hits, "misses": stats.misses}
                for tier, stats in cache.stats().items()}
        return payload

    def _admit(self) -> bool:
        """The overload front door: every work request (query, update,
        compact) passes here before touching the engine.  Past
        ``max_pending`` in-flight requests the caller sheds instead of
        queueing unboundedly."""
        return not (self.max_pending and self._pending >= self.max_pending)

    async def _respond(self, text: str) -> bytes:
        request_id = None
        sql = text
        timeout = self.request_timeout
        payload = None
        action = "sql"
        if text.startswith("{"):
            try:
                payload = json.loads(text)
                if isinstance(payload, dict):
                    request_id = payload.get("id")
                    if "update" in payload:
                        action = "update"
                    elif "compact" in payload:
                        action = "compact"
                    else:
                        if payload.get("timeout_ms") is not None:
                            # per-request deadline overrides the
                            # server-wide --request-timeout (0 disables
                            # for this request)
                            timeout = (parse_deadline(payload["timeout_ms"])
                                       / 1e3 or None)
                        sql = payload["sql"]
                else:
                    sql = payload["sql"]  # not a dict: bad request below
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                self.failures += 1
                return _encode({"id": request_id,
                                "error": f"bad request: {exc}"})
        if not self._admit():
            self.shed += 1
            return _encode({
                "id": request_id, "overloaded": True,
                "error": (f"overloaded: {self._pending} requests in "
                          f"flight (max_pending={self.max_pending})")})
        self._pending += 1
        try:
            if action == "update":
                return self._apply_update(payload, request_id)
            if action == "compact":
                return self._apply_compact(payload, request_id)
            return await self._respond_sql(sql, request_id, timeout)
        finally:
            self._pending -= 1

    async def _respond_sql(self, sql, request_id,
                           timeout: Optional[float]) -> bytes:
        self.requests += 1
        t0 = time.perf_counter()
        try:
            if timeout:
                result = await asyncio.wait_for(self.engine.query(sql),
                                                timeout)
            else:
                result = await self.engine.query(sql)
        except asyncio.TimeoutError:
            # the deadline is the contract: answer with a structured
            # error instead of pinning the connection on a slow query
            self.failures += 1
            return _encode({
                "id": request_id, "timeout": True,
                "error": (f"deadline exceeded after "
                          f"{timeout * 1e3:.0f} ms")})
        except AStoreError as exc:
            self.failures += 1
            return _encode({"id": request_id, "error": str(exc)})
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - the protocol promises
            # an answer per line: a malformed payload (e.g. a non-string
            # "sql") must produce an error response, not a torn socket
            self.failures += 1
            return _encode({"id": request_id,
                            "error": f"internal error: {exc!r}"})
        return _encode({
            "id": request_id,
            "columns": result.column_order,
            "rows": [list(row) for row in result.rows()],
            "ms": round((time.perf_counter() - t0) * 1e3, 3),
            "cached": bool(result.stats.cache_events.get("result_hits")),
        })

    def _apply_update(self, payload: dict, request_id) -> bytes:
        """``{"update": {"table", "positions", "values"}}``: apply a
        point mutation.

        The mutation count bumps before this response, so from here on
        no cache tier can serve a pre-mutation entry for the table."""
        import numpy as np

        try:
            spec = payload["update"]
            table = self.engine.engine.db.table(spec["table"])
            positions = np.asarray(spec["positions"], dtype=np.int64)
            changes = {name: np.asarray(values)
                       for name, values in spec["values"].items()}
            table.update(positions, changes)
        except Exception as exc:  # noqa: BLE001 - protocol: answer, not tear
            self.failures += 1
            return _encode({"id": request_id,
                            "error": f"update failed: {exc!r}"})
        self.requests += 1
        return _encode({"id": request_id, "ok": True,
                        "table": spec["table"],
                        "mutation_count": table.mutation_count})

    def _apply_compact(self, payload: dict, request_id) -> bytes:
        """``{"compact": "<table>"}``: the update admin's maintenance
        re-sort — drop deleted slots, restore the table's declared
        clustering, and rebuild its block summaries into the zone tier.

        Like updates, the consolidation bumps every touched table's
        mutation count before this response, so no cache tier can serve
        a pre-compaction answer afterwards."""
        try:
            name = payload["compact"]
            db = self.engine.engine.db
            info = db.compact(name, store=self.engine.engine.cache)
            table = db.table(name)
        except Exception as exc:  # noqa: BLE001 - protocol: answer, not tear
            self.failures += 1
            return _encode({"id": request_id,
                            "error": f"compact failed: {exc!r}"})
        self.requests += 1
        return _encode({"id": request_id, "ok": True, "table": name,
                        "rows": info["rows"], "dropped": info["dropped"],
                        "clustered": info["clustered"],
                        "summaries": info["summaries"],
                        "mutation_count": table.mutation_count})


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, default=str).encode() + b"\n"


async def serve_tcp(engine: AsyncEngine, host: str = "127.0.0.1",
                    port: int = 0,
                    request_timeout: Optional[float] = None,
                    max_pending: int = 0) -> QueryServer:
    """Start the line-protocol server (``port=0`` picks a free port).

    Returns the running :class:`QueryServer`; callers ``await
    server.wait_closed()`` to serve until a SHUTDOWN request arrives.
    """
    holder = QueryServer(engine=engine, request_timeout=request_timeout,
                         max_pending=max_pending)
    holder.server = await asyncio.start_server(holder._handle, host, port)
    return holder


async def run_server(db: Database, options: Optional[EngineOptions] = None,
                     host: str = "127.0.0.1", port: int = 7433,
                     max_concurrency: Optional[int] = None,
                     request_timeout: Optional[float] = None,
                     max_pending: int = 0,
                     announce=print) -> None:
    """``astore serve``: build the engine, listen, serve until SHUTDOWN
    (or cancellation, e.g. KeyboardInterrupt in the CLI)."""
    engine = AsyncEngine(db, options=options, max_concurrency=max_concurrency)
    server = await serve_tcp(engine, host, port,
                             request_timeout=request_timeout,
                             max_pending=max_pending)
    bound_host, bound_port = server.address
    announce(f"astore serve: listening on {bound_host}:{bound_port} "
             f"(backend={engine.engine.options.parallel_backend}, "
             f"workers={engine.engine.options.workers}, "
             f"max_concurrency={engine.max_concurrency})")
    try:
        await server.wait_closed()
    finally:
        await server.stop()
    announce(f"astore serve: stopped after {server.requests} requests "
             f"({server.failures} failed)")
