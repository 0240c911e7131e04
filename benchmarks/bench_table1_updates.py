"""Table 1 — update mechanisms: append, deletion vector, in-place update,
consolidation.

The paper's Table 1 is qualitative; this bench quantifies each mechanism
on A-Store's storage: append-insert throughput, lazy deletion, in-place
updates, consolidation (including the AIR rewrite that makes it
expensive), and the overhead an MVCC snapshot adds to a query.  The
paper's insertion into deleted slots is not measured: inserts here
always append at the tail (see ``repro.core.table``).  Expected shape:
appends/deletes/updates are cheap and O(batch); consolidation is the
expensive maintenance operation.
"""

import numpy as np

from conftest import BENCH_SF, write_report
from repro.bench import format_table, ns_per_tuple
from repro.datagen import generate_ssb
from repro.engine import AStoreEngine
from repro.updates import TransactionManager

BATCH = 10_000
RESULTS: dict = {}


def fresh_db():
    return generate_ssb(sf=max(0.005, BENCH_SF / 2), seed=7, airify=True)


def sample_rows(db, n):
    lineorder = db.table("lineorder")
    positions = np.arange(n) % lineorder.num_rows
    return {name: list(col.take(positions))
            for name, col in lineorder.columns.items()}


def bench_append_insert(benchmark):
    db = fresh_db()
    rows = sample_rows(db, BATCH)

    def run():
        db.table("lineorder").insert(rows)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    RESULTS["append insert"] = ns_per_tuple(benchmark.stats.stats.min, BATCH)


def bench_lazy_delete(benchmark):
    db = fresh_db()
    state = {"next": 0}

    def run():
        start = state["next"]
        db.table("lineorder").delete(np.arange(start, start + BATCH))
        state["next"] = start + BATCH

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    RESULTS["lazy delete"] = ns_per_tuple(benchmark.stats.stats.min, BATCH)


def bench_in_place_update(benchmark):
    db = fresh_db()
    positions = np.arange(BATCH)
    values = np.arange(BATCH, dtype=np.int64)

    def run():
        db.table("lineorder").update(positions, {"lo_revenue": values})

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    RESULTS["in-place update"] = ns_per_tuple(benchmark.stats.stats.min, BATCH)


def bench_consolidation_with_air_rewrite(benchmark):
    def setup():
        db = generate_ssb(sf=max(0.005, BENCH_SF / 2), seed=7, airify=True)
        customer = db.table("customer")
        # delete customers nobody references any more: repoint every fact
        # row at customer 0, free the rest
        lineorder = db.table("lineorder")
        lineorder.update(
            np.arange(lineorder.num_rows),
            {"lo_custkey": np.zeros(lineorder.num_rows, dtype=np.int64)})
        customer.delete(np.arange(1, customer.num_rows))
        return (db,), {}

    def run(db):
        db.consolidate("customer")

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    db = fresh_db()
    RESULTS["consolidation"] = ns_per_tuple(
        benchmark.stats.stats.min, db.table("lineorder").num_rows)


def bench_snapshot_query_overhead(benchmark):
    db = generate_ssb(sf=max(0.005, BENCH_SF / 2), seed=7, airify=True)
    # rebuild lineorder with MVCC enabled
    from repro.core import Table

    lineorder = db.table("lineorder")
    data = {name: col.values() for name, col in lineorder.columns.items()}
    mvcc_table = Table.from_arrays("lineorder_mvcc", data, mvcc=True)
    db.tables["lineorder"] = mvcc_table
    mvcc_table.name = "lineorder"
    txn = TransactionManager(db)
    snapshot = txn.snapshot()
    engine = AStoreEngine(db)
    sql = "SELECT sum(lo_revenue) AS s FROM lineorder"

    def run():
        engine.query(sql, snapshot=snapshot)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    RESULTS["snapshot query"] = ns_per_tuple(
        benchmark.stats.stats.min, mvcc_table.num_rows)


def bench_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    order = ["append insert", "lazy delete", "in-place update",
             "consolidation", "snapshot query"]
    rows = [[op, RESULTS[op]] for op in order if op in RESULTS]
    text = format_table(
        "Table 1: update mechanism costs (A-Store storage model)",
        ["operation", "ns/tuple"], rows)
    text += ("\nconsolidation is the expensive maintenance path (AIR "
             "rewrite of every referencing column), as in the paper; its "
             "ns/tuple is per *referencing fact row*, i.e. it touches the "
             "whole fact table to compact one small dimension")
    write_report("table1_updates", text)
    # consolidating a dimension costs more per referencing tuple than an
    # in-place write, because every AIR reference must be rewritten
    if "consolidation" in RESULTS and "in-place update" in RESULTS:
        assert RESULTS["consolidation"] > RESULTS["in-place update"]
