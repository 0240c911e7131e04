"""Data skipping (zone maps), micro-adaptive ordering, and their bounds.

Pins the PR's contracts:

* pruning on/off is **result-identical** on all 13 SSB queries across
  the serial, thread, and process backends (and a row variant);
* a mutation after a zone-map build can never yield a wrong skip —
  inserts, updates, and deletes are visible immediately on every
  backend (stale-skip impossibility);
* fully-accepted blocks skip their filter chain without changing
  results; skipped-block counters surface in ``ExecutionStats``;
* micro-adaptive filter reordering never changes results, only order;
* the result serving tier honours its TTL and entry cap;
* the dense hash-aggregation fast path equals the sort-based one.
"""

import pickle

import numpy as np
import pytest

from repro.core.statistics import (
    ColumnZoneMap,
    build_column_zone_map,
    default_zone_block_rows,
    zone_maps_for,
)
from repro.core.column import DictColumn, FixedColumn
from repro.core.types import DataType
from repro.engine import AStoreEngine, QueryCache, ReorderState
from repro.engine.aggregate import finalize, hash_aggregate
from repro.engine.operators import Filter, IntersectScan
from repro.engine.slice import RowRange
from repro.plan.binder import AggSpec
from repro.plan.expressions import (
    BoundColumn,
    BoundCompare,
    BoundLiteral,
    predicate_interval,
)
from repro.workloads import SSB_QUERIES

BACKENDS = ("serial", "thread", "process")


def fresh_engine(db, **overrides):
    return AStoreEngine.variant(db, "AIRScan_C_P_G", **overrides)


# -- zone map units -----------------------------------------------------------


class TestZoneMapBuild:
    def test_int_column_min_max(self):
        column = FixedColumn("v", DataType.INT64,
                             data=np.arange(10, dtype=np.int64))
        zm = build_column_zone_map(column, block_rows=4)
        assert zm.nblocks == 3
        assert zm.mins.tolist() == [0, 4, 8]
        assert zm.maxs.tolist() == [3, 7, 9]

    def test_float_nan_blocks_ignore_nans(self):
        data = np.array([1.0, np.nan, 3.0, np.nan], dtype=np.float64)
        zm = build_column_zone_map(FixedColumn("v", DataType.FLOAT64,
                                               data=data), block_rows=2)
        assert zm.mins[0] == 1.0 and zm.maxs[0] == 1.0
        assert zm.mins[1] == 3.0 and zm.maxs[1] == 3.0

    def test_dict_column_not_mappable(self):
        column = DictColumn("v", values=["a", "b", "a"])
        assert build_column_zone_map(column, block_rows=2) is None

    def test_default_block_rows_bounds(self):
        assert default_zone_block_rows(0) == 1024
        assert default_zone_block_rows(100) == 1024
        assert default_zone_block_rows(10_000_000) == 65536
        block = default_zone_block_rows(600_000)
        assert block & (block - 1) == 0  # power of two


class TestZoneMapStore:
    def test_lazy_build_and_reuse(self, tiny_star):
        store = QueryCache()
        zones = zone_maps_for(tiny_star, store=store, block_rows=4)
        a = zones.column("lineorder", "lo_quantity")
        b = zones.column("lineorder", "lo_quantity")
        assert isinstance(a, ColumnZoneMap) and a is b  # memoized

    def test_mutation_invalidates(self, tiny_star):
        store = QueryCache()
        zones = zone_maps_for(tiny_star, store=store, block_rows=4)
        before = zones.column("lineorder", "lo_quantity")
        assert before.maxs.max() == 40
        table = tiny_star.table("lineorder")
        table.update([0], {"lo_quantity": [99]})
        after = zones.column("lineorder", "lo_quantity")
        assert after is not before
        assert after.maxs.max() == 99

    def test_unprunable_column_cached_as_marker(self, tiny_star):
        store = QueryCache()
        zones = zone_maps_for(tiny_star, store=store, block_rows=4)
        assert zones.column("date", "d_month") is None
        assert zones.column("date", "d_month") is None  # marker hit


class TestPredicateInterval:
    COL = BoundColumn("lineorder", "lo_quantity")

    def test_comparisons(self):
        iv = predicate_interval(BoundCompare("<", self.COL, BoundLiteral(25)))
        assert (iv.lo, iv.hi, iv.exact) == (None, 25, False)
        iv = predicate_interval(BoundCompare(">=", self.COL, BoundLiteral(3)))
        assert (iv.lo, iv.hi, iv.exact) == (3, None, True)
        iv = predicate_interval(BoundCompare("=", self.COL, BoundLiteral(7)))
        assert (iv.lo, iv.hi, iv.exact) == (7, 7, True)

    def test_flipped_literal_side(self):
        iv = predicate_interval(BoundCompare("<", BoundLiteral(5), self.COL))
        assert (iv.lo, iv.hi, iv.exact) == (5, None, False)

    def test_non_prunable_forms(self):
        assert predicate_interval(
            BoundCompare("<>", self.COL, BoundLiteral(3))) is None
        assert predicate_interval(
            BoundCompare("<", self.COL, BoundColumn("lineorder",
                                                    "lo_discount"))) is None
        assert predicate_interval(
            BoundCompare("=", self.COL, BoundLiteral("x"))) is None


# -- differential: pruning on/off, all queries, all backends ------------------


@pytest.fixture(scope="module")
def reference_rows(ssb_air):
    """Unpruned serial rows for all 13 queries."""
    with fresh_engine(ssb_air, use_pruning=False, use_cache=False) as engine:
        return {qid: engine.query(sql).rows()
                for qid, sql in SSB_QUERIES.items()}


class TestPruningDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_queries_identical(self, ssb_air, reference_rows, backend):
        with fresh_engine(ssb_air, parallel_backend=backend,
                          workers=2 if backend != "serial" else 1,
                          use_cache=False) as engine:
            for qid, sql in SSB_QUERIES.items():
                assert engine.query(sql).rows() == reference_rows[qid], qid

    def test_row_variant_identical(self, ssb_air, reference_rows):
        with AStoreEngine.variant(ssb_air, "AIRScan_R_P",
                                  parallel_backend="serial",
                                  use_cache=False) as engine:
            rows = engine.query(SSB_QUERIES["Q1.1"]).rows()
        assert rows == reference_rows["Q1.1"]

    def test_selective_query_skips_blocks(self, ssb_air):
        with fresh_engine(ssb_air, use_cache=False) as engine:
            stats = engine.query(SSB_QUERIES["Q1.1"]).stats
        assert stats.morsels_skipped > 0

    def test_no_pruning_reports_nothing(self, ssb_air):
        with fresh_engine(ssb_air, use_pruning=False,
                          use_cache=False) as engine:
            stats = engine.query(SSB_QUERIES["Q1.1"]).stats
        assert stats.morsels_skipped == 0 and stats.morsels_accepted == 0

    def test_accept_blocks_skip_filters(self, ssb_air):
        # every lineorder row passes lo_quantity <= 50 and every date
        # passes d_year >= 1992: all blocks fully accept, results match
        sql = ("SELECT count(*) AS n FROM lineorder, date "
               "WHERE lo_orderdate = d_datekey AND d_year >= 1992 "
               "AND lo_quantity <= 50")
        with fresh_engine(ssb_air, use_cache=False) as engine:
            result = engine.query(sql)
        assert result.stats.morsels_accepted > 0
        assert result.stats.morsels_skipped == 0
        assert result.scalar() == ssb_air.table("lineorder").num_live


# -- freshness: a mutation can never leave a wrong skip -----------------------


NEEDLE_SQL = "SELECT count(*) AS n FROM lineorder WHERE lo_quantity > 1000"


def _template_row(table):
    return table.row(0)


class TestZoneMapFreshness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_update_after_build_is_seen(self, backend):
        from repro.datagen import generate_ssb

        db = generate_ssb(sf=0.002, seed=23)
        workers = 2 if backend != "serial" else 1
        with fresh_engine(db, parallel_backend=backend,
                          workers=workers, use_cache=False) as engine:
            assert engine.query(NEEDLE_SQL).scalar() == 0  # builds maps
            table = db.table("lineorder")
            victim = table.num_rows - 1  # in the last (skipped) block
            table.update([victim], {"lo_quantity": [2000]})
            assert engine.query(NEEDLE_SQL).scalar() == 1
            table.update([victim], {"lo_quantity": [10]})
            assert engine.query(NEEDLE_SQL).scalar() == 0

    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_insert_and_delete_after_build(self, backend):
        from repro.datagen import generate_ssb

        db = generate_ssb(sf=0.002, seed=24)
        workers = 2 if backend != "serial" else 1
        with fresh_engine(db, parallel_backend=backend,
                          workers=workers, use_cache=False) as engine:
            assert engine.query(NEEDLE_SQL).scalar() == 0
            table = db.table("lineorder")
            row = _template_row(table)
            row["lo_quantity"] = 5000
            positions = table.insert({k: [v] for k, v in row.items()})
            assert engine.query(NEEDLE_SQL).scalar() == 1
            table.delete(positions)
            assert engine.query(NEEDLE_SQL).scalar() == 0

    def test_deletes_confined_to_skipped_blocks(self):
        # deletions in blocks the query skips anyway: the survivor
        # bands carry no visibility mask at all
        from repro.datagen import generate_ssb

        db = generate_ssb(sf=0.002, seed=26)
        table = db.table("lineorder")
        table.delete(np.arange(0, 32))  # early (1992) rows, block 0
        sql = ("SELECT sum(lo_revenue) AS r FROM lineorder, date "
               "WHERE lo_orderdate = d_datekey AND d_year = 1998")
        with fresh_engine(db, use_cache=False) as pruned, \
                fresh_engine(db, use_pruning=False, use_cache=False) as plain:
            result = pruned.query(sql)
            assert result.rows() == plain.query(sql).rows()
            assert result.stats.morsels_skipped > 0

    def test_pruning_with_deleted_rows_matches(self, ssb_air):
        # deletes in every block: each survivor band carries a
        # visibility mask, and must agree with the unpruned engine
        from repro.datagen import generate_ssb

        db = generate_ssb(sf=0.002, seed=25)
        table = db.table("lineorder")
        table.delete(np.arange(0, table.num_rows, 7))
        sql = SSB_QUERIES["Q1.1"]
        with fresh_engine(db, use_cache=False) as pruned, \
                fresh_engine(db, use_pruning=False, use_cache=False) as plain:
            assert pruned.query(sql).rows() == plain.query(sql).rows()


    def test_dimension_growth_keeps_probe_verdicts_on_code_sets(
            self, monkeypatch):
        # a dimension insert grows the code domain of the fact FK that
        # references it: the FK's code-set summary rebuilds at the new
        # size, so every probe verdict still takes the membership path
        # (~0.5 s)
        from repro.baselines import DenormalizedEngine
        from repro.datagen import generate_ssb
        from repro.engine import sharding

        db = generate_ssb(sf=0.005, seed=27)
        keys = {"supplier": "s_suppkey", "customer": "c_custkey",
                "part": "p_partkey", "date": "d_datekey"}
        probes, judged = [], []
        compute = sharding.BoundQuery._compute_block_states
        code_set_verdicts = sharding._code_set_verdicts

        def spy_compute(self, db, zones, steps, *args):
            probes.extend(step[2].mask for step in steps
                          if step[0] == "codes")
            return compute(self, db, zones, steps, *args)

        def spy_verdicts(csm, member, blocks=slice(None)):
            judged.append(member)
            return code_set_verdicts(csm, member, blocks)

        monkeypatch.setattr(sharding.BoundQuery, "_compute_block_states",
                            spy_compute)
        monkeypatch.setattr(sharding, "_code_set_verdicts", spy_verdicts)
        with fresh_engine(db) as engine:
            for sql in SSB_QUERIES.values():  # summaries at the old size
                engine.query(sql)
            for name, key in keys.items():
                table = db.table(name)
                rows = [table.row(i) for i in range(3)]
                top = int(table[key].values().max())
                for i, row in enumerate(rows):
                    row[key] = top + 1 + i
                table.insert({column: [row[column] for row in rows]
                              for column in table.column_names})
            probes.clear()
            judged.clear()
            oracle = DenormalizedEngine(db)
            for qid, sql in SSB_QUERIES.items():
                assert (engine.query(sql).rows()
                        == oracle.query(sql).rows()), qid
        assert probes
        seen = {id(mask) for mask in probes}
        assert sum(id(member) in seen for member in judged) == len(probes)


# -- micro-adaptive ordering --------------------------------------------------


class TestAdaptiveOrdering:
    def test_repeated_queries_deterministic(self, ssb_air, reference_rows):
        with fresh_engine(ssb_air, use_cache=True) as engine:
            for _ in range(25):
                assert (engine.query(SSB_QUERIES["Q3.1"]).rows()
                        == reference_rows["Q3.1"])

    def test_reorder_state_adapts_and_reexplores(self):
        state = ReorderState(explore_every=4)
        static = [0, 1]
        assert state.order(static) == [0, 1]  # first trip explores
        # step 1 passes almost nothing, step 0 passes everything
        state.record(0, 95, 100)
        state.record(1, 5, 100)
        assert state.order(static) == [1, 0]  # adapted
        assert state.reorders == 1
        state.order(static)
        state.order(static)
        assert state.order(static) == [0, 1]  # 5th trip: re-exploration

    def test_reorder_state_survives_pickle(self):
        state = ReorderState()
        state.record(0, 1, 2)
        clone = pickle.loads(pickle.dumps(state))
        clone.record(0, 1, 2)  # lock was rebuilt
        assert clone.passes[0] == 2

    def test_adaptive_intersect_scan_matches_plain(self, tiny_star):
        from repro.engine.sharding import BoundQuery  # noqa: F401 (import path)
        from repro.engine.slice import universal_provider
        from repro.engine.operators import Morsel
        from repro.plan.binder import bind

        logical = bind("SELECT count(*) AS n FROM lineorder "
                       "WHERE lo_quantity >= 15 AND lo_discount <= 3",
                       tiny_star)
        steps = [Filter(expr) for expr in logical.fact_conjuncts]

        def run(scan):
            morsel = Morsel(np.arange(8, dtype=np.int64), universal_provider(
                tiny_star, "lineorder", logical.paths,
                np.arange(8, dtype=np.int64)))
            return scan.process(morsel).positions.tolist()

        plain = run(IntersectScan(steps))
        state = ReorderState(explore_every=2)
        for _ in range(6):
            assert run(IntersectScan(steps, adapt=state)) == plain

    def test_filters_reordered_counter_surfaces(self, ssb_air):
        with fresh_engine(ssb_air, use_cache=True,
                          morsel_rows=2048) as engine:
            total = 0
            for _ in range(30):
                total += engine.query(
                    SSB_QUERIES["Q3.1"]).stats.filters_reordered
        assert total >= 0  # counter plumbed through (may be 0 if stable)


# -- bounded result tier ------------------------------------------------------


class TestResultTierBounds:
    def _cache(self, **kwargs):
        clock = {"now": 0.0}
        cache = QueryCache(clock=lambda: clock["now"], **kwargs)
        return cache, clock

    def test_ttl_expires_entries(self, tiny_star):
        cache, clock = self._cache(result_ttl_seconds=5.0)
        cache.put("result", ("k",), "value", (), 10)
        assert cache.get("result", ("k",), tiny_star) == "value"
        clock["now"] = 6.0
        assert cache.get("result", ("k",), tiny_star) is None
        assert cache.stats()["result"].expirations == 1

    def test_ttl_zero_never_expires(self, tiny_star):
        cache, clock = self._cache()
        cache.put("result", ("k",), "value", (), 10)
        clock["now"] = 1e9
        assert cache.get("result", ("k",), tiny_star) == "value"

    def test_entry_cap_evicts_lru(self, tiny_star):
        cache, _ = self._cache(max_result_entries=2)
        for i in range(3):
            cache.put("result", (i,), i, (), 1)
        assert cache.get("result", (0,), tiny_star) is None  # evicted
        assert cache.get("result", (2,), tiny_star) == 2
        # other tiers keep the global cap
        for i in range(3):
            cache.put("plan", (i,), i, (), 1)
        assert cache.get("plan", (0,), tiny_star) == 0

    def test_engine_options_configure_shared_cache(self, tiny_star):
        engine = AStoreEngine.variant(tiny_star, "AIRScan_C_P_G",
                                      result_ttl_seconds=9.0,
                                      result_cache_entries=7)
        assert engine.cache.result_ttl_seconds == 9.0
        assert engine.cache.max_result_entries == 7
        engine.close()


# -- dense hash aggregation ---------------------------------------------------


class TestHashAggregateDense:
    SPECS = (AggSpec("COUNT", None, "n"),
             AggSpec("SUM", BoundColumn("t", "v"), "s"),
             AggSpec("MIN", BoundColumn("t", "v"), "lo"),
             AggSpec("MAX", BoundColumn("t", "v"), "hi"))

    def _run(self, codes, values):
        state = hash_aggregate(self.SPECS,
                               {"s": values, "lo": values, "hi": values},
                               codes)
        ids, out = finalize(state)
        return ids.tolist(), {k: v.tolist() for k, v in out.items()}

    def test_dense_path_equals_sparse_reference(self):
        rng = np.random.default_rng(5)
        dense = rng.integers(10, 40, 500).astype(np.int64)
        values = rng.integers(0, 1000, 500).astype(np.float64)
        # widen the same codes so the unique-based path runs
        sparse = dense * 1_000_000
        ids_d, out_d = self._run(dense, values)
        ids_s, out_s = self._run(sparse, values)
        assert [i * 1_000_000 for i in ids_d] == ids_s
        assert out_d == out_s

    def test_dense_path_drops_empty_cells(self):
        codes = np.array([2, 2, 9], dtype=np.int64)
        ids, out = self._run(codes, codes.astype(np.float64))
        assert ids == [2, 9]
        assert out["n"] == [2, 1]

    def test_merge_across_paths(self):
        a = hash_aggregate(self.SPECS[:1], {},
                           np.array([1, 2, 2], dtype=np.int64))
        b = hash_aggregate(self.SPECS[:1], {},
                           np.array([2, 5_000_000], dtype=np.int64))
        ids, out = finalize(a.merge(b))
        assert ids.tolist() == [1, 2, 5_000_000]
        assert out["n"].tolist() == [1, 3, 1]


# -- RowRange provider --------------------------------------------------------


class TestRowRange:
    def test_take_and_len(self):
        rng = RowRange(10, 14)
        assert len(rng) == 4
        assert rng[np.array([0, 3])].tolist() == [10, 13]
        assert rng.as_positions().tolist() == [10, 11, 12, 13]

    def test_provider_serves_views(self, tiny_star):
        from repro.engine.slice import universal_provider
        from repro.plan.binder import bind

        logical = bind("SELECT sum(lo_revenue) AS r FROM lineorder",
                       tiny_star)
        ranged = universal_provider(tiny_star, "lineorder", logical.paths,
                                    RowRange(2, 6))
        gathered = universal_provider(tiny_star, "lineorder", logical.paths,
                                      np.arange(2, 6, dtype=np.int64))
        a = ranged.fetch("lineorder", "lo_revenue").decode()
        b = gathered.fetch("lineorder", "lo_revenue").decode()
        assert np.array_equal(a, b)
        assert a.base is not None  # a view, not a copy
