"""Unit tests for the vectorized operator layer and morsel dispatcher."""

import numpy as np
import pytest

from repro.core import Database
from repro.engine import AStoreEngine, EngineOptions
from repro.engine.operators import (
    Aggregate,
    AIRProbe,
    ApplyMask,
    Filter,
    GroupCombine,
    IntersectScan,
    MaskFilter,
    MaterializeColumns,
    Morsel,
    MorselDispatcher,
    PredicateFilter,
    Project,
    ValueGather,
    merge_timings,
    value_grouping,
)
from repro.engine.result import ExecutionStats
from repro.engine.slice import universal_provider
from repro.errors import ExecutionError
from repro.plan import bind, optimize
from repro.plan.expressions import BoundColumn

from .conftest import build_tiny_star


@pytest.fixture(scope="module")
def star():
    return build_tiny_star()


def make_morsel(db: Database, logical, positions=None) -> Morsel:
    table = db.table(logical.root)
    if positions is None:
        positions = np.arange(table.num_rows, dtype=np.int64)
    return Morsel(positions, universal_provider(
        db, logical.root, logical.paths, positions))


def plan_for(db, sql):
    logical = bind(sql, db)
    return optimize(logical, db)


class TestMorsel:
    def test_refine_shrinks_positions_and_provider(self, star):
        physical = plan_for(star, "SELECT count(*) FROM lineorder, date")
        morsel = make_morsel(star, physical.logical)
        keep = np.zeros(8, dtype=bool)
        keep[[1, 4, 6]] = True
        refined = morsel.refine(keep)
        assert list(refined.positions) == [1, 4, 6]
        assert refined.provider.length == 3

    def test_refine_empty_selection(self, star):
        physical = plan_for(star, "SELECT count(*) FROM lineorder")
        morsel = make_morsel(star, physical.logical)
        refined = morsel.refine(np.zeros(8, dtype=bool))
        assert len(refined) == 0
        assert refined.provider.length == 0

    def test_refine_slices_codes(self, star):
        physical = plan_for(star, "SELECT count(*) FROM lineorder")
        morsel = make_morsel(star, physical.logical)
        morsel.codes = np.arange(8, dtype=np.int64)
        refined = morsel.refine(np.array([True] * 4 + [False] * 4))
        assert list(refined.codes) == [0, 1, 2, 3]


class TestFilterOperators:
    def test_filter_refines(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder WHERE lo_revenue >= 50")
        (expr, _), = physical.fact_conjuncts
        morsel = Filter(expr).process(make_morsel(star, physical.logical))
        assert list(morsel.positions) == [4, 5, 6, 7]

    def test_filter_on_empty_morsel_is_noop(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder WHERE lo_revenue >= 50")
        (expr, _), = physical.fact_conjuncts
        empty = make_morsel(star, physical.logical,
                            np.empty(0, dtype=np.int64))
        assert len(Filter(expr).process(empty)) == 0

    def test_all_filtered_morsel(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder WHERE lo_revenue > 999")
        (expr, _), = physical.fact_conjuncts
        morsel = Filter(expr).process(make_morsel(star, physical.logical))
        assert len(morsel) == 0

    def test_air_probe_vector(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder, date WHERE d_year = 1997")
        # date rows 0,1 are 1997
        pf = PredicateFilter(np.array([True, True, False]))
        morsel = AIRProbe("date", "vector", pf).process(
            make_morsel(star, physical.logical))
        # lineorder rows with lo_orderdate in {19970101, 19970102}
        assert list(morsel.positions) == [0, 1, 2, 3, 6]

    def test_air_probe_predicate(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder, date WHERE d_year = 1997")
        (dd,) = physical.dim_decisions
        morsel = AIRProbe("date", "predicate", dd.predicate).process(
            make_morsel(star, physical.logical))
        assert list(morsel.positions) == [0, 1, 2, 3, 6]

    def test_air_probe_bad_mode_rejected(self):
        with pytest.raises(ExecutionError):
            AIRProbe("date", "bogus")

    def test_mask_filter_uses_global_positions(self, star):
        physical = plan_for(star, "SELECT count(*) FROM lineorder")
        live = np.zeros(8, dtype=bool)
        live[[0, 7]] = True
        sub = make_morsel(star, physical.logical,
                          np.array([5, 6, 7], dtype=np.int64))
        morsel = MaskFilter(live).process(sub)
        assert list(morsel.positions) == [7]

    def test_deferred_filters_and_apply_mask(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder "
                  "WHERE lo_revenue >= 30 AND lo_discount <= 2")
        exprs = [expr for expr, _ in physical.fact_conjuncts]
        morsel = make_morsel(star, physical.logical)
        for expr in exprs:
            morsel = Filter(expr, defer=True).process(morsel)
            assert len(morsel) == 8          # defer: no shrinking yet
        morsel = ApplyMask().process(morsel)
        # revenue>=30: rows 2..7; discount<=2: rows 0,1,4,5 -> {4,5}
        assert list(morsel.positions) == [4, 5]

    def test_intersect_scan_matches_chained_filters(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder "
                  "WHERE lo_revenue >= 30 AND lo_discount <= 2")
        steps = [Filter(expr) for expr, _ in physical.fact_conjuncts]
        chained = make_morsel(star, physical.logical)
        for step in [Filter(expr) for expr, _ in physical.fact_conjuncts]:
            chained = step.process(chained)
        at_once = IntersectScan(steps).process(
            make_morsel(star, physical.logical))
        assert list(at_once.positions) == list(chained.positions)


class TestMaterializeAndProject:
    def test_materialize_overlays_decoded_columns(self, star):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder, customer "
                  "WHERE c_region = 'ASIA'")
        morsel = make_morsel(star, physical.logical)
        cols = [BoundColumn("customer", "c_region"),
                BoundColumn("lineorder", "lo_revenue")]
        morsel = MaterializeColumns(cols).process(morsel)
        values = morsel.provider.fetch("customer", "c_region").decode()
        assert list(values[:4]) == ["ASIA", "ASIA", "EUROPE", "AMERICA"]
        # positional probes still resolve through the underlying provider
        assert morsel.provider.positions_for("customer") is not None

    def test_materialized_overlay_survives_refine(self, star):
        physical = plan_for(star, "SELECT count(*) FROM lineorder, customer")
        morsel = MaterializeColumns(
            [BoundColumn("customer", "c_region")]).process(
                make_morsel(star, physical.logical))
        refined = morsel.refine(np.array([True, False] * 4))
        values = refined.provider.fetch("customer", "c_region").decode()
        # kept rows 0,2,4,6 -> custkeys 1,3,1,3 -> their regions
        assert list(values) == ["ASIA", "EUROPE", "ASIA", "EUROPE"]

    def test_project_concatenates_chunks(self, star):
        physical = plan_for(star, "SELECT lo_orderkey FROM lineorder")
        project = Project(physical.logical.projection_columns)
        project.process(make_morsel(star, physical.logical,
                                    np.arange(4, dtype=np.int64)))
        project.process(make_morsel(star, physical.logical,
                                    np.arange(4, 8, dtype=np.int64)))
        out = project.finish()
        assert list(out["lo_orderkey"]) == [1, 2, 3, 4, 5, 6, 7, 8]


class TestGroupingAndAggregation:
    def _grouped_plan(self, star):
        return plan_for(
            star, "SELECT d_year, sum(lo_revenue) AS s "
                  "FROM lineorder, date GROUP BY d_year")

    def test_group_combine_and_array_aggregate(self, star):
        from repro.engine.grouping import build_axes

        physical = self._grouped_plan(star)
        axes = build_axes(star, physical.logical)
        morsel = GroupCombine(axes).process(
            make_morsel(star, physical.logical))
        assert morsel.codes is not None and len(morsel.codes) == 8
        agg = Aggregate(physical.logical.aggregates,
                        ngroups=axes[0].card, use_array=True)
        agg.process(morsel)
        state = agg.finish()
        assert state is not None and state.is_dense

    def test_array_and_hash_agree(self, star):
        from repro.engine.grouping import build_axes
        from repro.engine.aggregate import finalize

        physical = self._grouped_plan(star)
        axes = build_axes(star, physical.logical)
        morsel = GroupCombine(axes).process(
            make_morsel(star, physical.logical))
        results = []
        for use_array in (True, False):
            agg = Aggregate(physical.logical.aggregates,
                            ngroups=axes[0].card, use_array=use_array)
            agg.process(morsel)
            ids, out = finalize(agg.finish())
            results.append((list(ids), {k: list(v) for k, v in out.items()}))
        assert results[0] == results[1]

    def test_aggregate_without_codes_rejected(self, star):
        physical = self._grouped_plan(star)
        agg = Aggregate(physical.logical.aggregates, ngroups=1,
                        use_array=True)
        with pytest.raises(ExecutionError):
            agg.process(make_morsel(star, physical.logical))

    def test_value_gather_and_grouping(self, star):
        physical = self._grouped_plan(star)
        gather = ValueGather(physical.logical)
        for chunk in (np.arange(4), np.arange(4, 8)):
            gather.process(make_morsel(star, physical.logical,
                                       chunk.astype(np.int64)))
        state = gather.finish()
        assert state.selected == 8
        axes, agg = value_grouping(physical.logical, state)
        assert [a.card for a in axes] == [2]    # 1997, 1998

    def test_value_gather_skips_empty_morsels(self, star):
        physical = self._grouped_plan(star)
        gather = ValueGather(physical.logical)
        gather.process(make_morsel(star, physical.logical,
                                   np.empty(0, dtype=np.int64)))
        state = gather.finish()
        assert state.selected == 0
        axes, agg = value_grouping(physical.logical, state)
        assert axes[0].card == 1                # empty domain clamps to 1


class TestMorselDispatcher:
    def test_partition_and_chunk(self):
        positions = np.arange(10, dtype=np.int64)
        parts = MorselDispatcher.partition(positions, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert len(MorselDispatcher.partition(positions, 1)) == 1
        chunks = MorselDispatcher.chunk(positions, 4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert len(MorselDispatcher.chunk(positions, 0)) == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutionError):
            MorselDispatcher("fiber")

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_backends_agree(self, star, backend):
        physical = plan_for(
            star, "SELECT count(*) FROM lineorder WHERE lo_revenue >= 30")
        (expr, _), = physical.fact_conjuncts
        dispatcher = MorselDispatcher(backend)
        morsels = [make_morsel(star, physical.logical, part) for part in
                   dispatcher.partition(np.arange(8, dtype=np.int64), 4)]
        results = dispatcher.run(morsels, lambda: [Filter(expr)])
        survivors = np.concatenate([r.morsel.positions for r in results])
        assert list(survivors) == [2, 3, 4, 5, 6, 7]

    def test_timings_and_finishes_surface(self, star):
        physical = plan_for(
            star, "SELECT d_year, count(*) AS n "
                  "FROM lineorder, date GROUP BY d_year")
        gather_label = []

        def pipeline():
            gather = ValueGather(physical.logical)
            gather_label.append(gather.label)
            return [gather]

        results = MorselDispatcher("serial").run(
            [make_morsel(star, physical.logical)], pipeline)
        (result,) = results
        assert gather_label[0] in result.finishes
        assert result.seconds > 0
        stats = ExecutionStats()
        merge_timings(stats, results)
        assert stats.operator_seconds.keys() == result.timings.keys()


class TestEngineMorselOptions:
    def test_morsel_rows_equivalent(self, ssb_air):
        sql = ("SELECT d_year, sum(lo_revenue) AS s FROM lineorder, date "
               "WHERE d_year >= 1993 GROUP BY d_year ORDER BY d_year")
        whole = AStoreEngine(ssb_air).query(sql)
        chunked = AStoreEngine(
            ssb_air, EngineOptions(morsel_rows=4096)).query(sql)
        assert chunked.rows() == whole.rows()
        assert chunked.stats.morsels > whole.stats.morsels

    def test_single_row_table(self):
        db = Database("one")
        db.create_table("d", {"d_key": [1], "d_name": ["only"]},
                        dict_threshold=1.0)
        db.create_table("f", {"f_d": [1], "f_v": [42]})
        db.add_reference("f", "f_d", "d", "d_key")
        db.airify()
        for options in (EngineOptions(), EngineOptions(scan="row"),
                        EngineOptions(workers=4, parallel_backend="thread")):
            result = AStoreEngine(db, options).query(
                "SELECT d_name, sum(f_v) AS s FROM f, d GROUP BY d_name")
            assert result.rows() == [("only", 42)]

    def test_operator_seconds_in_stats(self, ssb_air):
        result = AStoreEngine(ssb_air).query(
            "SELECT d_year, count(*) AS n FROM lineorder, date "
            "WHERE d_year = 1994 GROUP BY d_year")
        breakdown = result.stats.operator_breakdown()
        assert breakdown, "operator timings missing"
        labels = [label for label, _ in breakdown]
        assert any(label.startswith("probe[") or label.startswith("filter[")
                   for label in labels)
        assert any(label.startswith("aggregate") for label in labels)
