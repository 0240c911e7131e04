"""Second-generation skipping and clustering-preserving compaction.

Pins this PR's contracts:

* code-set block summaries (dictionary codes / AIR references) build
  correctly — including folded domains and dirty blocks — and give the
  Q2/Q3/Q4 families real skips the min/max maps never could;
* the cost gate fires exactly when pruning cannot recoup its own
  bookkeeping (``ExecutionStats.prune_gated``), and never changes
  results;
* ``Table.consolidate(order)`` validates the permutation it is handed;
* the declared clustering spec survives an npz save/load round trip,
  and the one-sort order equals ``np.lexsort`` over the spec's keys
  (dict-coded, object-valued, AIR-parent, wide and float keys), as the
  shared ``composite_sort_order`` — one packed key, sorted once — does
  over raw integer keys;
* ``Database.compact`` re-sorts a churned table back into its declared
  clustering, rebuilds the summaries, restores the skip counts of the
  fresh layout, and bumps the mutation stamp so no cache tier or shard
  worker can serve a pre-compaction answer;
* the 13-query pruning differential holds on deletion-heavy / churned
  blocks across the serial, thread, and process backends, before and
  after compaction;
* the serving layer's ``{"compact": ...}`` admin verb compacts in
  place, bumps the stamps, and keeps answering correctly.
"""

import asyncio
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import (
    CODE_SET_FOLD_CAP,
    ColumnCodeSetMap,
    build_column_code_set_map,
    rebuild_zone_maps,
    zone_maps_for,
)
from repro.core.column import DictColumn, FixedColumn
from repro.core.compaction import (_composite_key, clustering_sort_order,
                                   composite_sort_order)
from repro.core import Database
from repro.core.column import AIRColumn
from repro.core.types import DataType
from repro.datagen import generate_ssb
from repro.engine import AStoreEngine
from repro.engine.cache import QueryCache, query_cache_for
from repro.engine.serve import AsyncEngine, serve_tcp
from repro.engine.sharding import _code_set_verdicts
from repro.errors import StorageError
from repro.io import load_database, save_database
from repro.workloads import SSB_QUERIES

BACKENDS = ("serial", "thread", "process")


def fresh_engine(db, **overrides):
    overrides.setdefault("use_cache", False)
    return AStoreEngine.variant(db, "AIRScan_C_P_G", **overrides)


def churn(db, seed=7):
    """Deletion-heavy churn: drop a random sixth of the fact table,
    append a tenth back in arrival order (destroying the clustered
    layout), and rewrite a stripe in place."""
    table = db.table("lineorder")
    rng = np.random.default_rng(seed)
    victims = rng.choice(np.arange(1, table.num_rows), size=table.num_rows // 6,
                         replace=False)
    table.delete(victims)
    # re-append a tenth of the table in scattered (arrival) order: the
    # tail blocks mix every year band, destroying the clustered layout
    template = table.row(0)
    rows = {k: [] for k in template}
    stride = max(table.num_rows // (table.num_rows // 10 + 1), 1)
    for position in range(0, table.num_rows - 1, stride):
        for k, v in table.row(position).items():
            rows[k].append(v)
    table.insert(rows)
    table.update([0], {"lo_quantity": [int(template["lo_quantity"])]})
    return table


def skip_fraction(stats):
    total = (stats.morsels_skipped + stats.morsels_accepted
             + stats.morsels_scanned)
    return stats.morsels_skipped / total if total else 0.0


# -- code-set summaries -------------------------------------------------------


class TestCodeSetMap:
    def test_dict_column_blocks(self):
        column = DictColumn("v", values=["a", "b", "a", "c", "c", "c"])
        csm = build_column_code_set_map(column, block_rows=2)
        assert csm.nblocks == 3 and csm.exact
        assert csm.domain == column.cardinality
        # block 0 holds codes {a,b}, block 1 {a,c}, block 2 {c}
        a, b, c = column.dictionary.lookup_many(["a", "b", "c"])
        member = np.zeros(csm.domain, dtype=bool)
        member[b] = True
        empty, full = _code_set_verdicts(csm, member)
        assert empty.tolist() == [False, True, True]
        member[:] = False
        member[c] = True
        empty, full = _code_set_verdicts(csm, member)
        assert empty.tolist() == [True, False, False]
        assert full.tolist() == [False, False, True]

    def test_fixed_column_has_no_code_domain(self):
        column = FixedColumn("v", DataType.INT64,
                             data=np.arange(8, dtype=np.int64))
        assert build_column_code_set_map(column, block_rows=4) is None

    def test_folded_domain_skip_stays_sound(self):
        # fold the 4-value domain down to 2 slots: codes 0/2 and 1/3
        # collide, so ACCEPT must be withheld but SKIP stays sound
        csm_exact = build_column_code_set_map(
            DictColumn("v", values=["a", "b", "a", "b"]), block_rows=2)
        folded = ColumnCodeSetMap(
            block_rows=2, domain=CODE_SET_FOLD_CAP * 2,
            bits=np.packbits(np.zeros((1, CODE_SET_FOLD_CAP), dtype=bool),
                             axis=1),
            dirty=np.zeros(1, dtype=bool), exact=False)
        assert folded.fold == CODE_SET_FOLD_CAP
        member = np.zeros(folded.domain, dtype=bool)
        member[CODE_SET_FOLD_CAP + 5] = True  # folds onto slot 5
        empty, full = _code_set_verdicts(folded, member)
        assert empty.tolist() == [True]       # no bits set: skippable
        assert full.tolist() == [False]       # never ACCEPT when folded
        assert csm_exact.exact and not folded.exact

    def test_dirty_blocks_never_judged(self):
        from repro.core.column import AIRColumn

        refs = np.array([0, 1, -1, 0], dtype=np.int64)  # block 1 stale
        column = AIRColumn("ref", "dim", data=refs)
        csm = build_column_code_set_map(column, block_rows=2, domain=2)
        assert csm.dirty.tolist() == [False, True]
        member = np.zeros(2, dtype=bool)  # nothing passes
        empty, full = _code_set_verdicts(csm, member)
        assert empty.tolist() == [True, False]  # dirty block: scan

    def test_zone_store_serves_code_sets(self, ssb_air):
        zones = zone_maps_for(ssb_air, store=QueryCache(), block_rows=1024)
        csm = zones.code_set("lineorder", "lo_orderdate")
        assert csm is not None and csm.nblocks > 0
        assert zones.code_set("lineorder", "lo_orderdate") is csm  # memoized
        assert zones.code_set("lineorder", "lo_revenue") is None


class TestCodeSetPruning:
    @pytest.mark.parametrize("qid", ("Q2.1", "Q3.2", "Q4.3"))
    def test_dim_probe_families_now_skip(self, ssb_air, qid):
        # PR4's min/max maps could not prune these: their predicates hit
        # dictionary codes and AIR references, not value ranges
        with fresh_engine(ssb_air) as engine:
            stats = engine.query(SSB_QUERIES[qid]).stats
        assert stats.morsels_skipped > 0, qid

    def test_gate_fires_on_unprofitable_prune(self, ssb_air):
        # Q3.1 (region-level: most blocks survive) cannot recoup the
        # verdict pass at this scale — the gate must fire and the plain
        # scan must still answer identically
        with fresh_engine(ssb_air) as pruned, \
                fresh_engine(ssb_air, use_pruning=False) as plain:
            result = pruned.query(SSB_QUERIES["Q3.1"])
            assert result.stats.prune_gated > 0
            assert result.stats.morsels_skipped == 0
            assert result.rows() == plain.query(SSB_QUERIES["Q3.1"]).rows()

    def test_gate_stays_open_on_profitable_prune(self, ssb_air):
        with fresh_engine(ssb_air) as engine:
            stats = engine.query(SSB_QUERIES["Q1.1"]).stats
        assert stats.prune_gated == 0
        assert stats.morsels_skipped > 0


# -- consolidate(order) -------------------------------------------------------


class TestConsolidateOrder:
    def test_reorders_live_rows(self, tiny_star):
        table = tiny_star.table("lineorder")
        keys = table["lo_revenue"].values().copy()
        order = np.argsort(-keys)  # descending revenue
        table.consolidate(order)
        assert table["lo_revenue"].values().copy().tolist() \
            == sorted(keys.tolist(), reverse=True)

    def test_drops_deleted_rows_in_order(self, tiny_star):
        table = tiny_star.table("lineorder")
        table.delete([0, 3])
        live = np.array([7, 6, 5, 4, 2, 1], dtype=np.int64)
        table.consolidate(live)
        assert table.num_rows == 6
        assert table["lo_orderkey"].values().tolist() == [8, 7, 6, 5, 3, 2]

    def test_rejects_wrong_length(self, tiny_star):
        table = tiny_star.table("lineorder")
        with pytest.raises(StorageError):
            table.consolidate(np.array([0, 1], dtype=np.int64))

    def test_rejects_deleted_and_duplicate_positions(self, tiny_star):
        table = tiny_star.table("lineorder")
        table.delete([2])
        bad = np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.int64)  # 2 deleted
        with pytest.raises(StorageError):
            table.consolidate(bad)
        dup = np.array([0, 1, 3, 4, 5, 6, 6], dtype=np.int64)
        with pytest.raises(StorageError):
            table.consolidate(dup)


# -- clustering spec ----------------------------------------------------------


class TestClusteringSpec:
    def test_generator_declares_lineorder_clustering(self):
        db = generate_ssb(sf=0.002, seed=41)
        spec = db.clustering["lineorder"]
        assert spec[0] == "date.d_year"          # outermost: year bands
        assert "lineorder.lo_orderdate" in spec  # innermost: date order

    def test_spec_survives_npz_round_trip(self, tmp_path):
        db = generate_ssb(sf=0.002, seed=41)
        path = tmp_path / "ssb.npz"
        save_database(db, path)
        clone = load_database(path)
        assert clone.clustering == db.clustering

    def test_sort_order_is_a_live_permutation(self):
        db = generate_ssb(sf=0.002, seed=42)
        table = db.table("lineorder")
        table.delete([3, 5, 8])
        order = clustering_sort_order(db, "lineorder",
                                      db.clustering["lineorder"])
        assert len(order) == table.num_live
        assert len(np.unique(order)) == len(order)


def lexsort_reference(db, table_name, spec):
    """The live rows ordered by ``np.lexsort`` over the spec's keys,
    decoded value by value: own columns at the live rows, AIR columns by
    their parent key, other tables' columns through the AIR reference."""
    tab = db.table(table_name)
    live = np.flatnonzero(tab.live_mask())
    keys = []
    for item in spec:
        tname, _, cname = item.partition(".")
        if tname == table_name:
            column = tab[cname]
            ref = db.reference_for(table_name, cname)
            if isinstance(column, AIRColumn) and ref.parent_key is not None:
                values = db.table(ref.parent_table)[ref.parent_key].take(
                    column.values()[live])
            else:
                values = column.take(live)
        else:
            (ref,) = [r for r in db.outgoing(table_name)
                      if r.parent_table == tname]
            values = db.table(tname)[cname].take(
                tab[ref.child_column].values()[live])
        if values.dtype.kind == "O":
            values = np.unique(values, return_inverse=True)[1]
        keys.append(values)
    return live[np.lexsort(keys[::-1])]


#: sort keys of the property below: dict-coded and object-valued strings,
#: AIR-parent attributes, wide integers (ranked, or wide enough together
#: to force the composite's re-rank) and floats with NaN and -0.0
SORT_KEYS = ("dim.grp", "dim.name", "dim.wide", "f.fk", "f.code", "f.label",
             "f.big", "f.mid", "f.flt")


class TestSortOrderMatchesLexsort:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_lexsort_reference(self, data):
        n = data.draw(st.integers(1, 80), label="rows")
        ndim = data.draw(st.integers(1, 12), label="dims")
        ints = lambda lo, hi, size: data.draw(st.lists(
            st.integers(lo, hi), min_size=size, max_size=size))
        db = Database("sortkeys")
        db.create_table("dim", {
            "k": np.arange(ndim, dtype=np.int64) * 7 + 3,
            "grp": np.array(ints(0, 3, ndim), dtype=np.int64),
            "name": [f"n{v}" for v in ints(0, 2, ndim)],
            "wide": np.array(ints(-(1 << 63), (1 << 63) - 1, ndim),
                             dtype=np.int64),
        })
        floats = st.sampled_from([0.5, -0.0, 0.0, np.nan, -2.0, 1e300])
        db.create_table("f", {
            "fk": np.array(ints(0, ndim - 1, n), dtype=np.int64) * 7 + 3,
            "code": [f"c{v}" for v in ints(0, 2, n)],
            "label": [f"l{v}" for v in ints(0, 10 ** 6, n)],
            "big": np.array(ints(0, 1 << 40, n), dtype=np.int64),
            "mid": np.array(ints(-(1 << 29), 1 << 29, n), dtype=np.int64),
            "flt": np.array(data.draw(st.lists(floats, min_size=n,
                                               max_size=n))),
        })
        db.add_reference("f", "fk", "dim", "k")
        db.airify()
        victims = data.draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
        db.table("f").delete(victims)
        spec = data.draw(st.lists(st.sampled_from(SORT_KEYS), min_size=1,
                                  max_size=6, unique=True), label="spec")
        assert np.array_equal(clustering_sort_order(db, "f", spec),
                              lexsort_reference(db, "f", spec))

    def test_epoch_compacts_like_the_lexsort_reference(self):
        # one mixed_rw-shaped epoch (appends, slot-reusing appends,
        # measure updates, deletes, a dimension update), then compact
        # one copy and consolidate the other in the lexsort order
        pattern = ("append", "update", "delete", "update", "append",
                   "customer", "append", "update", "append", "update",
                   "append", "delete")
        copies = [generate_ssb(sf=0.01, seed=21) for _ in range(2)]
        for db in copies:
            fact, customer = db.table("lineorder"), db.table("customer")
            rng = np.random.default_rng(5)
            for op in pattern:
                if op == "customer":
                    customer.update(rng.choice(customer.num_rows, 20,
                                               replace=False),
                                    {"c_region": ["ASIA"] * 20})
                    continue
                positions = rng.choice(np.flatnonzero(fact.live_mask()),
                                       300, replace=False)
                if op == "append":
                    fact.insert(fact.gather(positions))
                elif op == "update":
                    fact.update(positions, {"lo_revenue": rng.integers(
                        0, 10 ** 6, len(positions))})
                else:
                    fact.delete(positions)
        compacted, reference = copies
        compacted.compact("lineorder")
        reference.consolidate("lineorder", order=lexsort_reference(
            reference, "lineorder", reference.clustering["lineorder"]))
        a, b = compacted.table("lineorder"), reference.table("lineorder")
        assert a.num_rows == b.num_rows
        for name in a.column_names:
            assert np.array_equal(a[name].values(), b[name].values()), name


class TestCompositeSortOrder:
    """The one sort behind compaction and the generator's load order,
    over raw integer key arrays, outermost first."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_lexsort(self, data):
        n = data.draw(st.integers(0, 60), label="rows")
        spans = st.sampled_from([
            (0, 3, np.int8), (-5, 5, np.int16), (0, 1000, np.int32),
            (0, 3, np.int64), (0, 1 << 40, np.int64),
            (-(1 << 63), (1 << 63) - 1, np.int64)])
        keys = []
        for lo, hi, dtype in data.draw(
                st.lists(spans, min_size=1, max_size=5), label="spans"):
            keys.append(np.array(data.draw(st.lists(
                st.integers(lo, hi), min_size=n, max_size=n)), dtype=dtype))
        assert np.array_equal(composite_sort_order(keys),
                              np.lexsort(keys[::-1]))

    def test_wide_radix_product_re_ranks(self):
        # two 2**40-wide keys overflow the composite, so the running
        # composite is re-ranked before the third key folds in
        rng = np.random.default_rng(3)
        keys = [rng.integers(0, 4, 500) << 40, rng.integers(0, 1 << 40, 500),
                rng.integers(0, 1 << 40, 500), rng.integers(0, 3, 500)]
        assert np.array_equal(composite_sort_order(keys),
                              np.lexsort(keys[::-1]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_packed_key_equals_lexsort(self, data):
        # up to 2 000 rows, so the row numbers take up to 11 bits of the
        # packed key; narrow spans give ties, and spans start negative
        n = data.draw(st.integers(0, 2000), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        widths = {np.int8: 7, np.int16: 15, np.int64: 63}
        keys = []
        for dtype in data.draw(st.lists(st.sampled_from(list(widths)),
                                        min_size=1, max_size=3),
                               label="dtypes"):
            span = 1 << data.draw(st.integers(0, widths[dtype]),
                                  label="span bits")
            lo = max(-span // 2, -(1 << widths[dtype]))
            hi = min(lo + span, (1 << widths[dtype]) - 1)
            keys.append(rng.integers(lo, hi, n, endpoint=True, dtype=dtype))
        assert np.array_equal(composite_sort_order(keys),
                              np.lexsort(keys[::-1]))

    def test_packed_key_re_ranks_a_wide_composite(self):
        # the keys fold without a re-rank into a 2**60-wide composite,
        # which scaled by the 11 row bits of 2 000 rows would pass 63
        # bits, so it is re-ranked before it is packed
        rng = np.random.default_rng(8)
        keys = [rng.integers(-1, 1, 2000, endpoint=True, dtype=np.int8),
                rng.integers(0, 1 << 59, 2000)]
        _, radix = _composite_key(keys)
        assert radix < 1 << 62 and radix << (1999).bit_length() > 1 << 63
        assert np.array_equal(composite_sort_order(keys),
                              np.lexsort(keys[::-1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_dict_coded_key_through_the_spec(self, seed):
        rng = np.random.default_rng(seed)
        n = 2000
        db = Database("packed")
        db.create_table("f", {
            "code": [f"c{v}" for v in rng.integers(0, 30, n)],
            "small": rng.integers(-3, 3, n).astype(np.int8),
            "wide": rng.integers(-(1 << 62), 1 << 62, n),
        }, dict_threshold=1.0)
        assert isinstance(db.table("f")["code"], DictColumn)
        db.table("f").delete(rng.choice(n, 100, replace=False))
        for spec in (["f.code", "f.small"], ["f.small", "f.code", "f.wide"]):
            assert np.array_equal(clustering_sort_order(db, "f", spec),
                                  lexsort_reference(db, "f", spec))

    def test_needs_a_key(self):
        with pytest.raises(ValueError):
            composite_sort_order([])


# -- compaction ---------------------------------------------------------------


class TestCompaction:
    def test_compact_restores_fresh_layout_skipping(self):
        fresh = generate_ssb(sf=0.002, seed=43)
        with fresh_engine(fresh) as engine:
            fresh_stats = engine.query(SSB_QUERIES["Q1.1"]).stats
        assert fresh_stats.morsels_skipped > 0

        db = generate_ssb(sf=0.002, seed=43)
        churn(db)
        with fresh_engine(db) as engine:
            churned_stats = engine.query(SSB_QUERIES["Q1.1"]).stats
        # appends landed outside the year bands: skipping degrades
        assert skip_fraction(churned_stats) < skip_fraction(fresh_stats)

        summary = db.compact("lineorder", store=query_cache_for(db))
        assert summary["clustered"] and summary["dropped"] > 0
        assert summary["rows"] == db.table("lineorder").num_rows
        assert summary["summaries"] > 0
        with fresh_engine(db) as engine:
            compacted_stats = engine.query(SSB_QUERIES["Q1.1"]).stats
        assert skip_fraction(compacted_stats) \
            >= skip_fraction(fresh_stats) - 0.1

    def test_compact_bumps_stamp_and_invalidates_caches(self):
        db = generate_ssb(sf=0.002, seed=44)
        store = query_cache_for(db)
        with fresh_engine(db, use_cache=True) as engine:
            before = engine.query(SSB_QUERIES["Q1.1"]).rows()
            stamp = db.table("lineorder").mutation_count
            db.compact("lineorder", store=store)
            assert db.table("lineorder").mutation_count > stamp
            # post-compaction answers are identical, never stale-served
            assert engine.query(SSB_QUERIES["Q1.1"]).rows() == before

    def test_compact_without_clustering_spec_still_consolidates(self):
        db = generate_ssb(sf=0.002, seed=45)
        db.clustering.pop("lineorder")
        table = db.table("lineorder")
        table.delete(np.arange(0, table.num_rows, 9))
        summary = db.compact("lineorder")
        assert summary["dropped"] > 0 and not summary["clustered"]
        assert table.num_rows == table.num_live

    def test_dimension_compaction_remaps_in_one_buffer(self):
        # the incoming AIR column is remapped into one fact-sized buffer
        # (plus bool masks) that the new column adopts: the parent
        # gathered, masked and copied it through three (2.26x here)
        db = generate_ssb(sf=0.3, seed=47)
        sql = SSB_QUERIES["Q1.1"]
        before = AStoreEngine(db).query(sql).rows()
        column = db.table("lineorder")["lo_orderdate"].values().nbytes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            db.compact("date")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.3 * column, (peak - start) / column
        assert AStoreEngine(db).query(sql).rows() == before

    def test_rebuild_zone_maps_counts_summaries(self):
        db = generate_ssb(sf=0.002, seed=46)
        built = rebuild_zone_maps(db, "lineorder", store=query_cache_for(db))
        assert built > 0


# -- the churned differential -------------------------------------------------


class TestChurnedDifferential:
    def test_13_queries_all_backends_pre_and_post_compact(self):
        db = generate_ssb(sf=0.002, seed=47)
        churn(db)
        by_phase = {}
        for phase in ("churned", "compacted"):
            if phase == "compacted":
                summary = db.compact("lineorder", store=query_cache_for(db))
                assert summary["clustered"]
            reference = None
            for backend in BACKENDS:
                workers = 2 if backend != "serial" else 1
                for pruning in (True, False):
                    with fresh_engine(db, parallel_backend=backend,
                                      workers=workers,
                                      use_pruning=pruning) as engine:
                        answers = {qid: engine.query(sql).rows()
                                   for qid, sql in SSB_QUERIES.items()}
                    if reference is None:
                        reference = answers
                    else:
                        assert answers == reference, (phase, backend, pruning)
            by_phase[phase] = reference
        # compaction reorders storage, never answers
        for qid in SSB_QUERIES:
            assert sorted(by_phase["churned"][qid]) \
                == sorted(by_phase["compacted"][qid]), qid


# -- serving-layer admin verb -------------------------------------------------


SQL_YEAR = ("SELECT d_year, sum(lo_revenue) AS r FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year")


class TestCompactAdmin:
    def test_compact_admin_compacts_and_keeps_answers(self):
        db = generate_ssb(sf=0.002, seed=48)
        churn(db)

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
            stamp = db.table("lineorder").mutation_count
            response = await rpc({"compact": "lineorder", "id": 2})
            assert response["ok"] and response["table"] == "lineorder"
            assert response["dropped"] > 0 and response["clustered"]
            assert response["mutation_count"] > stamp
            assert response["mutation_count"] \
                == db.table("lineorder").mutation_count
            assert db.table("lineorder").num_rows \
                == db.table("lineorder").num_live
            after = (await rpc({"sql": SQL_YEAR, "id": 3}))["rows"]
            assert after == before  # cached pre-compaction entry not served
            bad = await rpc({"compact": "nope", "id": 4})
            assert "error" in bad
            writer.close()
            await server.stop()

        asyncio.run(main())
