"""Ablations of the optimizer's design choices.

1. **Predicate ordering** — selectivity-ordered evaluation vs the worst
   (reversed) order on a query with one very selective and one barely
   selective predicate; the selection vector should shrink early.
2. **Filter vs probe crossover** — sweep the dimension size and compare
   predicate-vector probing against direct AIR probing, locating the
   region where the optimizer's cache-fit decision matters.
3. **Dictionary compression** — the same dimension predicate on a
   dictionary-encoded vs a heap string column.
"""

import numpy as np
import pytest

from conftest import write_report
from repro.bench import format_table, ms
from repro.core import Database
from repro.engine import AStoreEngine, EngineOptions
from repro.plan import CacheModel

RESULTS: dict = {}


def _sized_star(dim_rows: int, fact_rows: int = 200_000,
                dict_encode: bool = True) -> Database:
    rng = np.random.default_rng(7)
    db = Database(f"sized_{dim_rows}")
    labels = [f"label_{i % 97}" for i in range(dim_rows)]
    db.create_table("dim", {
        "d_key": np.arange(dim_rows, dtype=np.int64),
        "d_label": labels,
        "d_bucket": rng.integers(0, 100, dim_rows).astype(np.int32),
    }, dict_threshold=1.0 if dict_encode else 0.0)
    db.create_table("fact", {
        "f_d": rng.integers(0, dim_rows, fact_rows),
        "f_value": rng.integers(0, 1000, fact_rows).astype(np.int64),
    })
    db.add_reference("fact", "f_d", "dim", "d_key")
    db.airify()
    return db


SELECTIVE_SQL = """
    SELECT count(*) AS n, sum(f_value) AS s FROM fact
    WHERE f_value < 10 AND f_value % 2 = 0
"""


@pytest.mark.parametrize("ordering", ["optimized", "reversed"])
def bench_predicate_ordering(benchmark, ordering):
    db = _sized_star(1000)
    engine = AStoreEngine(db)
    physical = engine.plan(SELECTIVE_SQL)
    if ordering == "reversed":
        physical.fact_conjuncts = tuple(reversed(physical.fact_conjuncts))

    benchmark.pedantic(lambda: engine.execute(physical), rounds=3,
                       iterations=1, warmup_rounds=1)
    RESULTS[("ordering", ordering)] = ms(benchmark.stats.stats.min)


DIM_SIZES = (1_000, 10_000, 100_000, 1_000_000)


@pytest.mark.parametrize("mode", ["filter", "probe"])
@pytest.mark.parametrize("dim_rows", DIM_SIZES)
def bench_filter_vs_probe(benchmark, dim_rows, mode):
    db = _sized_star(dim_rows)
    sql = ("SELECT count(*) AS n FROM fact, dim "
           "WHERE d_bucket < 30")
    if mode == "filter":
        options = EngineOptions(use_predicate_filter=True,
                                cache=CacheModel(llc_bytes=1 << 30))
    else:
        options = EngineOptions(use_predicate_filter=False)
    engine = AStoreEngine(db, options)
    result = benchmark.pedantic(lambda: engine.query(sql), rounds=3,
                                iterations=1, warmup_rounds=1)
    expected_mode = "vector" if mode == "filter" else "probe"
    assert result.stats.filter_modes == {"dim": expected_mode}
    RESULTS[("fvp", dim_rows, mode)] = ms(benchmark.stats.stats.min)


@pytest.mark.parametrize("encoding", ["dictionary", "heap"])
def bench_dictionary_compression(benchmark, encoding):
    db = _sized_star(50_000, dict_encode=(encoding == "dictionary"))
    sql = ("SELECT count(*) AS n FROM fact, dim "
           "WHERE d_label = 'label_13'")
    engine = AStoreEngine(db, EngineOptions(use_predicate_filter=False))
    benchmark.pedantic(lambda: engine.query(sql), rounds=3, iterations=1,
                       warmup_rounds=1)
    RESULTS[("dict", encoding)] = ms(benchmark.stats.stats.min)


def bench_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sections = []
    if ("ordering", "optimized") in RESULTS:
        sections.append(format_table(
            "Ablation 1: predicate evaluation order",
            ["order", "ms"],
            [["selectivity-ordered", RESULTS[("ordering", "optimized")]],
             ["reversed", RESULTS[("ordering", "reversed")]]]))
    rows = []
    for dim_rows in DIM_SIZES:
        if ("fvp", dim_rows, "filter") in RESULTS:
            rows.append([dim_rows,
                         RESULTS[("fvp", dim_rows, "filter")],
                         RESULTS[("fvp", dim_rows, "probe")]])
    if rows:
        sections.append(format_table(
            "Ablation 2: predicate vector vs direct probe by dim size",
            ["dim rows", "filter ms", "probe ms"], rows))
    if ("dict", "dictionary") in RESULTS:
        sections.append(format_table(
            "Ablation 3: dictionary compression on predicate columns",
            ["encoding", "ms"],
            [["dictionary", RESULTS[("dict", "dictionary")]],
             ["string heap", RESULTS[("dict", "heap")]]]))
    text = "\n".join(sections)
    write_report("ablation_optimizer", text)
    # ordered evaluation must not lose to the reversed order
    if ("ordering", "optimized") in RESULTS:
        assert (RESULTS[("ordering", "optimized")]
                <= RESULTS[("ordering", "reversed")] * 1.1)
    # dictionary encoding must beat heap strings for predicate evaluation
    if ("dict", "dictionary") in RESULTS:
        assert RESULTS[("dict", "dictionary")] < RESULTS[("dict", "heap")]
