"""Command-line interface for the A-Store engine.

Subcommands::

    astore generate --benchmark ssb --sf 0.01 --out ssb.img
    astore query ssb.img "SELECT d_year, sum(lo_revenue) AS r
                          FROM lineorder, date GROUP BY d_year" [--explain]
    astore explain ssb.img "SELECT ..."      # operator DAG + decisions
    astore ssb ssb.img                       # run all 13 SSB queries
    astore cache ssb.img                     # per-tier cache hit statistics
    astore serve ssb.img --port 7433         # asyncio line-protocol server
    astore compact ssb.img                   # clustering-preserving re-sort
    astore validate ssb.img                  # referential-integrity check

``query``/``ssb``/``cache``/``serve`` accept ``--backend
{process,serial,thread}`` and ``--workers N`` — the ``process``
backend shards the fact table N ways over the calling process and N − 1
worker processes attached to an exported database image — and
``query``/``ssb`` take ``--no-cache`` to disable the mutation-stamped
query cache and ``--no-pruning`` to disable zone-map data skipping.
``serve`` is one process: an asyncio server over one engine, with a
per-request deadline (``--request-timeout``) and an overload front
door (``--max-pending``).  ``cache`` can bound the result (serving)
tier with ``--result-ttl``/``--result-entries``.  ``query
--breakdown`` additionally prints the stage and per-operator timing
breakdowns plus the prune verdict counts (blocks skipped / fully
accepted / scanned, and whether the cost gate bypassed the verdict
pass; with ``--repeat N`` the last, warm execution is reported:
near-zero leaf time on a plan-cache hit; with ``--backend process`` it
also prints the shard-task traffic: tasks, task bytes, plan ships and
plan misses).  ``compact`` runs the
maintenance re-sort that restores a table's declared clustering after
streaming appends and MVCC churn (the serve layer accepts the same
operation as a ``{"compact": table}`` admin request).  Performance is
measured by ``benchmarks/e2e/run.py``, not by a subcommand.  Also
runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench import best_of, format_table, ms
from .core.statistics import validate_references
from .datagen import generate_ssb, generate_tpch
from .engine import AStoreEngine, VARIANTS
from .engine.operators import BACKENDS
from .engine.serve import parse_deadline
from .engine.sharding import shard_traffic
from .errors import AStoreError
from .io import dump_csv, load_database, save_database

_GENERATORS = {
    "ssb": generate_ssb,
    "tpch": generate_tpch,
}

_WORKERS_HELP = ("horizontal fact-table shards (Section 5); the process "
                "backend runs N shards on N-1 pool processes plus the "
                "calling one, and N=1 inline with no pool")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astore",
        description="A-Store: virtual denormalization for main-memory OLAP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a benchmark database")
    gen.add_argument("--benchmark", choices=sorted(_GENERATORS),
                     default="ssb")
    gen.add_argument("--sf", type=float, default=0.01,
                     help="scale factor (SF=1 is the official size)")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="output database image path")

    query = sub.add_parser("query", help="run one SQL query")
    query.add_argument("database", help="a database image from 'generate'")
    query.add_argument("sql", help="the SPJGA query text")
    query.add_argument("--variant", choices=sorted(VARIANTS),
                       default="AIRScan_C_P_G")
    query.add_argument("--workers", type=int, default=1,
                       help=_WORKERS_HELP)
    query.add_argument("--backend", choices=sorted(BACKENDS),
                       default="serial",
                       help="execution backend (process = shard workers "
                            "over an exported image)")
    query.add_argument("--explain", action="store_true",
                       help="print the plan instead of executing")
    query.add_argument("--breakdown", action="store_true",
                       help="also print the stage + per-operator timing "
                            "breakdowns and cache events")
    query.add_argument("--repeat", type=int, default=1,
                       help="run the query N times (warming the cache) and "
                            "report the last execution")
    query.add_argument("--no-cache", action="store_true",
                       help="disable the mutation-stamped query cache")
    query.add_argument("--no-pruning", action="store_true",
                       help="disable zone-map data skipping")
    query.add_argument("--csv", metavar="PATH",
                       help="also write the result to a CSV file")
    query.add_argument("--limit", type=int, default=20,
                       help="max rows to print (default 20)")

    explain = sub.add_parser(
        "explain",
        help="print the operator DAG and optimizer decisions for a query")
    explain.add_argument("database", help="a database image from 'generate'")
    explain.add_argument("sql", help="the SPJGA query text")
    explain.add_argument("--variant", choices=sorted(VARIANTS),
                         default="AIRScan_C_P_G")

    ssb = sub.add_parser("ssb", help="run the 13 SSB queries")
    ssb.add_argument("database", help="a database image of SSB data")
    ssb.add_argument("--repeat", type=int, default=3)
    ssb.add_argument("--variant", choices=sorted(VARIANTS),
                     default="AIRScan_C_P_G")
    ssb.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    ssb.add_argument("--backend", choices=sorted(BACKENDS),
                     default="serial")
    ssb.add_argument("--no-cache", action="store_true",
                     help="disable the mutation-stamped query cache")
    ssb.add_argument("--no-pruning", action="store_true",
                     help="disable zone-map data skipping")

    cache = sub.add_parser(
        "cache",
        help="run SSB flights through the query cache and print per-tier "
             "hit/miss/bytes statistics")
    cache.add_argument("database", help="a database image of SSB data")
    cache.add_argument("--queries", default=None,
                       help="comma-separated SSB query ids (default: all)")
    cache.add_argument("--rounds", type=int, default=2,
                       help="how many flights to run (first is cold)")
    cache.add_argument("--variant", choices=sorted(VARIANTS),
                       default="AIRScan_C_P_G")
    cache.add_argument("--workers", type=int, default=1,
                       help=_WORKERS_HELP)
    cache.add_argument("--backend", choices=sorted(BACKENDS),
                       default="serial")
    cache.add_argument("--no-serve", action="store_true",
                       help="disable the result (serving) tier")
    cache.add_argument("--result-ttl", type=float, default=0.0,
                       metavar="SECONDS",
                       help="expire result-tier entries older than this "
                            "(0 = no TTL)")
    cache.add_argument("--result-entries", type=int, default=0, metavar="N",
                       help="cap the result tier at N entries "
                            "(0 = shared default)")

    serve = sub.add_parser(
        "serve",
        help="serve concurrent queries over TCP (newline-delimited JSON "
             "or raw SQL in, JSON out; PING/STATS/SHUTDOWN admin lines)")
    serve.add_argument("database", help="a database image from 'generate'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7433,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--variant", choices=sorted(VARIANTS),
                       default="AIRScan_C_P_G")
    serve.add_argument("--backend", choices=sorted(BACKENDS),
                       default="serial",
                       help="sync execution backend the async engine "
                            "multiplexes over")
    serve.add_argument("--workers", type=int, default=1,
                       help=_WORKERS_HELP)
    serve.add_argument("--max-concurrency", type=int, default=0,
                       help="bound on concurrently executing queries "
                            "(0 = derive from the core count)")
    serve.add_argument("--request-timeout", type=_deadline, default=0.0,
                       metavar="SECONDS",
                       help="per-request deadline; a query past it "
                            "answers a structured timeout error instead "
                            "of pinning the connection (0 = none; "
                            "requests may override with a timeout_ms "
                            "field)")
    serve.add_argument("--no-serve-cache", action="store_true",
                       help="disable the result (serving) tier")
    serve.add_argument("--max-pending", type=int, default=0, metavar="N",
                       help="overload front door: shed requests with a "
                            "structured {\"overloaded\": true} error once "
                            "N are in flight (0 = no bound)")

    compact = sub.add_parser(
        "compact",
        help="clustering-preserving compaction: drop deleted slots, "
             "re-sort into the declared clustering order, rebuild block "
             "summaries, and rewrite the image")
    compact.add_argument("database", help="a database image from 'generate'")
    compact.add_argument("--table", default=None,
                         help="table to compact (default: every root/"
                              "fact table)")
    compact.add_argument("--out", metavar="PATH",
                         help="output image (default: rewrite the "
                              "input in place)")

    val = sub.add_parser("validate", help="check referential integrity")
    val.add_argument("database", help="a database image")

    lint = sub.add_parser(
        "lint",
        help="static invariant analysis: lock discipline, plan "
             "portability, stamp protocol, async hygiene")
    lint.add_argument("root", nargs="?", default=None,
                      help="directory or file to analyze (default: the "
                           "installed repro package, with the committed "
                           "baseline applied)")
    lint.add_argument("--rule", action="append", metavar="RULE-ID",
                      help="run only this rule (repeatable)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      dest="fmt", help="output format")
    lint.add_argument("--baseline", action="store_true",
                      help="rewrite the baseline file with the current "
                           "findings instead of failing on them")
    lint.add_argument("--baseline-file", default=None, metavar="PATH",
                      help="baseline to reconcile against (default: the "
                           "committed src/repro/analysis/baseline.json "
                           "when scanning the default root)")
    lint.add_argument("--explain", metavar="RULE-ID",
                      help="print the rule's contract, history, and an "
                           "example violation/fix, then exit")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the available rule ids and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except AStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); not an error
        return 0


def _dispatch(args) -> int:
    if args.command == "generate":
        db = _GENERATORS[args.benchmark](sf=args.sf, seed=args.seed)
        save_database(db, args.out)
        rows = {name: table.num_rows for name, table in db.tables.items()}
        print(f"wrote {args.out}: " + ", ".join(
            f"{name}={n:,}" for name, n in rows.items()))
        return 0

    if args.command == "query":
        db = load_database(args.database)
        with AStoreEngine.variant(db, args.variant, workers=args.workers,
                                  parallel_backend=args.backend,
                                  use_cache=not args.no_cache,
                                  use_pruning=not args.no_pruning) as engine:
            if args.explain:
                print(engine.explain(args.sql))
                return 0
            for _ in range(max(1, args.repeat)):
                result = engine.query(args.sql)
            traffic = shard_traffic(db)
        shown = result.rows()[: args.limit]
        print(format_table(
            f"{len(result)} rows ({result.stats.total_seconds * 1e3:.2f} ms,"
            f" {result.stats.variant}, {args.backend})",
            result.column_order, shown))
        if len(result) > args.limit:
            print(f"... {len(result) - args.limit} more rows")
        if args.breakdown:
            stats = result.stats
            stages = [["leaf", ms(stats.leaf_seconds)],
                      ["scan", ms(stats.scan_seconds)],
                      ["aggregation", ms(stats.aggregation_seconds)],
                      ["total", ms(stats.total_seconds)]]
            print(format_table("stage breakdown", ["stage", "ms"], stages))
            rows = [[label, ms(seconds)]
                    for label, seconds in stats.operator_breakdown()]
            print(format_table(
                f"operator breakdown ({stats.morsels} morsels)",
                ["operator", "ms"], rows))
            if (stats.morsels_skipped or stats.morsels_accepted
                    or stats.morsels_scanned or stats.prune_gated):
                print(f"data skipping: {stats.morsels_skipped} blocks "
                      f"skipped, {stats.morsels_accepted} fully accepted, "
                      f"{stats.morsels_scanned} scanned"
                      + (f", {stats.prune_gated} verdict pass(es) "
                         f"cost-gated" if stats.prune_gated else ""))
            if stats.filters_reordered:
                print(f"adaptive: filter order changed "
                      f"{stats.filters_reordered}x")
            summary = stats.cache_summary()
            if summary:
                print(f"cache: {summary}")
            if traffic is not None:
                print("shard tasks: " + ", ".join(
                    f"{name}={count}" for name, count in traffic.items()))
        if args.csv:
            dump_csv(result, args.csv)
            print(f"wrote {args.csv}")
        return 0

    if args.command == "explain":
        db = load_database(args.database)
        engine = AStoreEngine.variant(db, args.variant)
        print(engine.explain(args.sql))
        return 0

    if args.command == "ssb":
        from .workloads import SSB_QUERIES

        db = load_database(args.database)
        with AStoreEngine.variant(db, args.variant, workers=args.workers,
                                  parallel_backend=args.backend,
                                  use_cache=not args.no_cache,
                                  use_pruning=not args.no_pruning) as engine:
            rows = []
            for query_id, sql in SSB_QUERIES.items():
                seconds, result = best_of(lambda: engine.query(sql),
                                          repeat=args.repeat)
                rows.append([query_id, len(result), ms(seconds)])
        rows.append(["AVG", "", sum(r[2] for r in rows) / len(rows)])
        print(format_table(
            f"SSB with {args.variant} ({args.backend}, "
            f"workers={args.workers}, "
            f"cache {'off' if args.no_cache else 'on: repeats are warm'})",
            ["query", "groups", "best ms"], rows))
        return 0

    if args.command == "compact":
        from .engine.cache import query_cache_for

        db = load_database(args.database)
        tables = ([args.table] if args.table
                  else (db.roots() or list(db.tables)))
        store = query_cache_for(db)
        for name in tables:
            info = db.compact(name, store=store)
            print(f"compacted {name}: rows={info['rows']:,} "
                  f"dropped={info['dropped']:,} "
                  f"clustered={'yes' if info['clustered'] else 'no'} "
                  f"summaries={info['summaries']}")
        out = args.out or args.database
        save_database(db, out)
        print(f"wrote {out}")
        return 0

    if args.command == "cache":
        return _dispatch_cache(args)

    if args.command == "serve":
        return _dispatch_serve(args)

    if args.command == "validate":
        db = load_database(args.database)
        problems = validate_references(db)
        if problems:
            for problem in problems:
                print(f"VIOLATION: {problem}")
            return 1
        print(f"{db.name}: {len(db.references)} references consistent")
        return 0

    if args.command == "lint":
        return _dispatch_lint(args)

    raise AssertionError(f"unhandled command {args.command!r}")


def _dispatch_lint(args) -> int:
    """``astore lint``: run the invariant analyzer (see repro.analysis)."""
    import json as _json

    from . import analysis

    if args.list_rules:
        for rule_id in analysis.rule_ids():
            print(rule_id)
        return 0
    if args.explain:
        text = analysis.explain_rule(args.explain)
        if text is None:
            raise AStoreError(
                f"unknown rule {args.explain!r} "
                f"(known: {', '.join(analysis.rule_ids())})")
        print(text)
        return 0
    try:
        report = analysis.run_lint(
            root=args.root,
            rules=args.rule,
            baseline_path=(args.baseline_file if args.baseline_file
                           else "auto"),
            update_baseline=args.baseline,
        )
    except ValueError as exc:
        raise AStoreError(str(exc))
    if args.baseline:
        target = (args.baseline_file or
                  (analysis.default_baseline_path() if args.root is None
                   else None))
        if target is None:
            raise AStoreError(
                "--baseline with an explicit root needs --baseline-file")
        print(f"baseline written: {len(report.findings)} finding(s) "
              f"-> {target}")
        return 0
    if args.fmt == "json":
        print(_json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.new:
            print(f"{finding.anchor()}: [{finding.rule}] {finding.message}")
        for finding in report.baselined:
            print(f"{finding.anchor()}: [{finding.rule}] (baselined) "
                  f"{finding.message}")
        print(f"astore lint: {len(report.findings)} finding(s) "
              f"({len(report.new)} new, {len(report.baselined)} baselined, "
              f"{report.suppressed} suppressed) over {report.files} files "
              f"[rules: {', '.join(report.rules)}]")
    return 0 if report.ok else 1


def _deadline(text: str) -> float:
    """``--request-timeout``: a finite number of seconds ``>= 0``."""
    try:
        return parse_deadline(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dispatch_serve(args) -> int:
    """``astore serve``: the asyncio line-protocol query server (one
    process; ``--workers`` is the engine's shard count, as on
    ``query``)."""
    import asyncio
    from dataclasses import replace as dataclasses_replace

    from .engine.serve import run_server

    options = dataclasses_replace(
        VARIANTS[args.variant],
        parallel_backend=args.backend,
        workers=args.workers,
        cache_results=not args.no_serve_cache,
    )
    db = load_database(args.database)
    try:
        asyncio.run(run_server(
            db, options=options, host=args.host, port=args.port,
            max_concurrency=args.max_concurrency or None,
            request_timeout=args.request_timeout or None,
            max_pending=args.max_pending))
    except KeyboardInterrupt:
        print("astore serve: interrupted, shutting down")
    return 0


def _dispatch_cache(args) -> int:
    """``astore cache``: flights through the cache + per-tier statistics."""
    from .bench import host_note
    from .workloads import SSB_QUERIES

    query_ids = ([q.strip() for q in args.queries.split(",")]
                 if args.queries else list(SSB_QUERIES))
    db = load_database(args.database)
    flights = []
    with AStoreEngine.variant(db, args.variant, workers=args.workers,
                              parallel_backend=args.backend,
                              cache_results=not args.no_serve,
                              result_ttl_seconds=args.result_ttl,
                              result_cache_entries=args.result_entries
                              ) as engine:
        import time as _time

        for round_no in range(max(1, args.rounds)):
            t0 = _time.perf_counter()
            for query_id in query_ids:
                engine.query(SSB_QUERIES[query_id])
            flights.append([
                round_no + 1, "cold" if round_no == 0 else "warm",
                ms(_time.perf_counter() - t0)])
        stats_rows = engine.cache.stats_rows()
    print(host_note())
    print(format_table(
        f"{len(query_ids)}-query SSB flights over {db.name} "
        f"({args.variant}, {args.backend}"
        f"{', serving tier off' if args.no_serve else ''})",
        ["flight", "cache", "ms"], flights))
    print(format_table(
        "query cache tiers",
        ["tier", "entries", "hits", "misses", "hit %", "invalidated",
         "expired", "KiB", "built", "patched"],
        stats_rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
