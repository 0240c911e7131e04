"""Block summaries under mutation: journal-patched, equal to full builds.

Pins the contracts of summary maintenance:

* ``Table`` journals what each stamped write touched (columns and
  physical rows) and barriers the journal on consolidation and
  column swaps; deletes ignore repeated positions and updates reject
  out-of-range ones, so journaled positions are always valid;
* a summary served after a write is patched from the previous one —
  untouched columns reused as-is, touched blocks re-summarised — and is
  array-for-array equal to a fresh full build, across any history of
  appends, deletes, updates, dimension updates, added columns and
  compactions (a hypothesis state machine), with query answers equal to
  the unpruned, uncached reference;
* an update of a measure no code set depends on costs the next flight
  zero code-set builds, and ``astore cache`` says so (built vs patched);
* prune verdicts follow the same journal: after any history, every
  cached plan's verdicts, cost gate and survivor ranges equal a cold
  evaluation on a fresh cache, and a plan grouping by a fact column
  recompiles when that column is written; a plan keeps its verdicts
  outright across a delete or an update of a column no step checks,
  and still ships current summaries with an export;
* inserts append at the tail, so a write epoch leaves every clustered
  block's verdicts as they were: a date-band query stays pruned.
"""

import copy


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import Table
from repro.core.column import AIRColumn, FixedColumn
from repro.core.statistics import (
    CODE_SET_FOLD_CAP,
    build_column_code_set_map,
    build_column_zone_map,
    default_zone_block_rows,
    fresh_zone_entries,
    zone_map_key,
    zone_maps_for,
)
from repro.core.types import DataType
from repro.datagen import generate_ssb
from repro.engine import AStoreEngine, EngineOptions
from repro.engine.cache import QueryCache, query_cache_for
from repro.engine.sharding import BoundQuery
from repro.errors import StorageError
from repro.workloads import SSB_QUERIES

FLIGHT = tuple(SSB_QUERIES)
#: one query per Q1-Q3 family: min/max bands, code sets, both
CHECKED = ("Q1.1", "Q2.1", "Q3.2")
#: a plan that encodes fact data: its group axis is lo_discount's domain
FACT_GROUP_SQL = ("SELECT lo_discount, sum(lo_revenue) AS r "
                  "FROM lineorder, date WHERE d_year = 1994 "
                  "GROUP BY lo_discount ORDER BY lo_discount")


def assert_verdicts_cold(db, bound):
    """*bound*'s cached verdicts, cost gate and survivor ranges equal a
    cold evaluation on a fresh cache (summaries rebuilt from scratch)."""
    warm = bound._block_states(db)
    cold_plan = copy.copy(bound)  # pickled state: no per-plan memo
    cold = cold_plan._block_states(db, store=QueryCache())
    if cold[0] is None:
        assert warm[0] is None
        return
    assert np.array_equal(warm[0], cold[0])
    assert warm[1:3] == cold[1:3]
    assert bound.prune_ranges(db) == cold_plan.prune_ranges(db)


def small_table():
    return Table.from_arrays("t", {"a": np.arange(10), "b": np.arange(10) * 2})


def same_summary(a, b):
    """Array-for-array (dtype and shape included) equality of two
    summaries, ``None`` only equal to ``None``."""
    if a is None or b is None:
        return a is b
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            if (x.dtype != y.dtype or x.shape != y.shape
                    or not np.array_equal(x, y, equal_nan=x.dtype.kind == "f")):
                return False
        elif x != y:
            return False
    return True


def assert_summaries_fresh(db, zones, table="lineorder"):
    """Every summary *zones* serves for *table* equals a full build."""
    tab = db.table(table)
    block_rows = zones.block_rows_for(table)
    for name, column in tab.columns.items():
        domain = (db.table(column.referenced_table).num_rows
                  if isinstance(column, AIRColumn) else None)
        assert same_summary(zones.column(table, name),
                            build_column_zone_map(column, block_rows)), name
        assert same_summary(zones.code_set(table, name),
                            build_column_code_set_map(column, block_rows,
                                                      domain)), name


def dense_code_sets(codes, block_rows, domain):
    """The reference kernel: one dense (blocks x fold) membership matrix,
    packed row-wise; out-of-domain codes mark their block dirty."""
    fold = min(domain, CODE_SET_FOLD_CAP)
    blocks = np.arange(len(codes)) // block_rows
    nblocks = -(-len(codes) // block_rows)
    valid = (codes >= 0) & (codes < domain)
    member = np.zeros((nblocks, fold), dtype=bool)
    member[blocks[valid], codes[valid] % fold] = True
    dirty = np.zeros(nblocks, dtype=bool)
    np.logical_or.at(dirty, blocks, ~valid)
    return np.packbits(member, axis=1), dirty


# -- the per-block code-set kernel --------------------------------------------


class TestCodeSetKernel:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), domain=st.integers(1, 40),
           block_rows=st.integers(1, 9))
    def test_matches_dense_reference(self, data, domain, block_rows):
        codes = np.array(data.draw(st.lists(st.integers(-2, domain + 2),
                                            max_size=60)), dtype=np.int64)
        csm = build_column_code_set_map(AIRColumn("ref", "dim", data=codes),
                                        block_rows, domain)
        bits, dirty = dense_code_sets(codes, block_rows, domain)
        assert np.array_equal(csm.bits, bits) and csm.bits.shape == bits.shape
        assert np.array_equal(csm.dirty, dirty)

    def test_folded_domain_matches_dense_reference(self):
        domain = CODE_SET_FOLD_CAP + 100
        codes = np.random.default_rng(3).integers(-1, domain + 1, 50)
        csm = build_column_code_set_map(AIRColumn("ref", "dim", data=codes),
                                        16, domain)
        bits, dirty = dense_code_sets(codes, 16, domain)
        assert not csm.exact
        assert np.array_equal(csm.bits, bits) and np.array_equal(csm.dirty, dirty)


# -- Table: journal and position hygiene --------------------------------------


class TestJournal:
    def test_delete_ignores_repeated_positions(self):
        table = small_table()
        assert table.delete([1, 1]) == 1
        assert table.delete([3, 1, 3]) == 1
        (entry,) = table.journal_since(1, 2)
        assert entry.positions.tolist() == [3]
        positions = table.insert({"a": [100, 101], "b": [200, 201]})
        assert positions.tolist() == [10, 11]
        assert table.num_live == 10
        assert table.row(1) == {"a": 1, "b": 2}

    def test_update_out_of_range_raises_storage_error(self):
        table = small_table()
        with pytest.raises(StorageError):
            table.update([10], {"a": [0]})
        with pytest.raises(StorageError):
            table.update([-1], {"a": [0]})
        assert table.mutation_count == 0

    def test_entries_record_what_each_write_touched(self):
        table = small_table()
        start = table.mutation_count
        table.update([3], {"a": [7]})
        table.delete([4, 5])
        table.insert({"a": [1, 2, 3], "b": [4, 5, 6]})
        entries = table.journal_since(start, table.mutation_count)
        assert [e.count for e in entries] == [start + 1, start + 2, start + 3]
        update, delete, insert = entries
        assert update.columns == {"a"}
        assert update.positions.tolist() == [3]
        assert delete.columns == frozenset()
        assert sorted(delete.positions.tolist()) == [4, 5]
        assert insert.columns == {"a", "b"}
        assert insert.positions.tolist() == [10, 11, 12]

    def test_barriers_cut_the_journal(self):
        table = small_table()
        table.update([0], {"a": [1]})
        before = table.mutation_count
        table.consolidate()
        assert table.journal_since(before, table.mutation_count) is None
        assert table.journal_since(table.mutation_count,
                                   table.mutation_count) == ()
        table.add_column(FixedColumn("c", DataType.INT64,
                                     data=np.zeros(10, dtype=np.int64)))
        assert table.journal_since(before + 1, table.mutation_count) is None

    def test_journal_is_bounded(self):
        from repro.core.table import JOURNAL_MAX_ENTRIES

        table = small_table()
        for _ in range(JOURNAL_MAX_ENTRIES + 5):
            table.update([0], {"a": [1]})
        now = table.mutation_count
        assert table.journal_since(0, now) is None
        assert len(table.journal_since(now - JOURNAL_MAX_ENTRIES, now)) \
            == JOURNAL_MAX_ENTRIES

    def test_journal_positions_are_copies(self):
        table = small_table()
        positions = np.array([2, 3])
        table.update(positions, {"a": [0, 0]})
        positions[:] = 9
        (entry,) = table.journal_since(0, table.mutation_count)
        assert entry.positions.tolist() == [2, 3]


# -- patched summaries ---------------------------------------------------------


class TestPatchedSummaries:
    def test_untouched_summaries_are_reused_as_is(self):
        db = generate_ssb(sf=0.002, seed=5)
        zones = zone_maps_for(db, store=QueryCache())
        custkey = zones.code_set("lineorder", "lo_custkey")
        quantity = zones.column("lineorder", "lo_quantity")
        fact = db.table("lineorder")
        fact.update([0, 1], {"lo_revenue": [5, 6]})
        assert zones.code_set("lineorder", "lo_custkey") is custkey
        assert zones.column("lineorder", "lo_quantity") is quantity
        assert_summaries_fresh(db, zones)

    def test_parent_update_keeps_code_sets_parent_growth_rebuilds(self):
        db = generate_ssb(sf=0.002, seed=5)
        zones = zone_maps_for(db, store=QueryCache())
        custkey = zones.code_set("lineorder", "lo_custkey")
        customer = db.table("customer")
        customer.update([0], {"c_region": [customer["c_region"].get(1)]})
        assert zones.code_set("lineorder", "lo_custkey") is custkey
        customer.insert(customer.gather(np.array([0])))
        grown = zones.code_set("lineorder", "lo_custkey")
        assert grown.domain == custkey.domain + 1
        assert_summaries_fresh(db, zones)

    def test_measure_update_costs_the_next_flight_no_code_set_builds(self):
        db = generate_ssb(sf=0.01, seed=11)
        with AStoreEngine.variant(db, "AIRScan_C_P_G") as engine:
            for qid in FLIGHT:
                engine.query(SSB_QUERIES[qid])
            built, patched = engine.cache.summary_counts()["code-set"]
            fact = db.table("lineorder")
            fact.update(np.arange(0, fact.num_rows, 997),
                        {"lo_revenue": np.arange(0, fact.num_rows, 997)})
            for qid in FLIGHT:
                engine.query(SSB_QUERIES[qid])
            after = engine.cache.summary_counts()["code-set"]
        # nor a patch: no step checks lo_revenue, so every plan keeps
        # its verdicts and reads no summary
        assert after == (built, patched)

    def test_cache_rows_split_built_and_patched(self):
        db = generate_ssb(sf=0.002, seed=5)
        cache = query_cache_for(db)
        zones = zone_maps_for(db, store=cache)
        zones.column("lineorder", "lo_revenue")
        db.table("lineorder").update([0], {"lo_revenue": [1]})
        zones.column("lineorder", "lo_revenue")
        (row,) = [r for r in cache.stats_rows() if r[0] == "  zone/min/max"]
        assert row[-2:] == [1, 1]
        cache.clear()
        assert cache.previous_summary(
            ("zonemap", "lineorder", "lo_revenue",
             zones.block_rows_for("lineorder"))) is None


# -- per-plan verdicts across writes -------------------------------------------


def count_verdict_passes(monkeypatch):
    """Count :meth:`BoundQuery._compute_block_states` calls."""
    from repro.engine import sharding

    calls = []
    compute = sharding.BoundQuery._compute_block_states

    def counted(self, *args, **kwargs):
        calls.append(1)
        return compute(self, *args, **kwargs)

    monkeypatch.setattr(sharding.BoundQuery, "_compute_block_states", counted)
    return calls


class TestPlanVerdictsAcrossWrites:
    def test_delete_and_unchecked_update_keep_verdicts(self, monkeypatch):
        db = generate_ssb(sf=0.01, seed=11)
        fact = db.table("lineorder")
        with AStoreEngine(db) as engine:
            bound = engine.compile(SSB_QUERIES["Q1.1"])
            states = bound._block_states(db)[0]
            calls = count_verdict_passes(monkeypatch)
            fact.delete(np.arange(0, fact.num_rows, 7))
            fact.update([1, 2], {"lo_revenue": [5, 6]})
            assert bound._block_states(db)[0] is states
            assert not calls
            # a checked column written, or a row added: re-verdicted
            fact.update([1], {"lo_quantity": [50]})
            bound._block_states(db)
            assert len(calls) == 1
            fact.insert(fact.gather(np.array([3])))
            bound._block_states(db)
            assert len(calls) == 2
            assert_verdicts_cold(db, bound)

    def test_export_warms_the_summaries_carried_verdicts_skipped(self):
        db = generate_ssb(sf=0.01, seed=11)
        fact = db.table("lineorder")
        with AStoreEngine(db) as engine:
            bound = engine.compile(SSB_QUERIES["Q1.1"])
            bound._block_states(db)
            fact.delete([0, 1])
            bound._block_states(db)  # carried over the delete

            def fresh_keys():
                return {key for key, _ in fresh_zone_entries(db, engine.cache)}

            zone_key = zone_map_key("lineorder", "lo_quantity",
                                    default_zone_block_rows(fact.num_rows))
            assert zone_key not in fresh_keys()
            bound.warm_zone_maps(db)
            assert zone_key in fresh_keys()
            assert_verdicts_cold(db, bound)


# -- tail appends ---------------------------------------------------------------


def test_write_epoch_keeps_a_date_band_query_pruned():
    # ~0.3 s: one mixed_rw write epoch (its write pattern, 200 rows a
    # write at sf=0.01, no compaction).  Rows appended at the tail leave
    # every clustered block's summaries exact; with slot reuse the
    # appends landed in nearly every block and Q1.1 fell to a
    # cost-gated full scan.
    db = generate_ssb(sf=0.01, seed=3)
    fact, customer = db.table("lineorder"), db.table("customer")
    rng = np.random.default_rng(7)
    sql = SSB_QUERIES["Q1.1"]
    with AStoreEngine(db) as engine, AStoreEngine(db, EngineOptions(
            use_cache=False, use_pruning=False)) as reference:
        before = engine.query(sql).stats
        blocks = before.morsels_skipped + before.morsels_scanned \
            + before.morsels_accepted
        assert before.morsels_skipped and not before.prune_gated
        old_rows = fact.num_rows
        for op in ("append", "update", "delete", "update", "append",
                   "customer", "append", "update", "append", "update",
                   "append", "delete"):
            if op == "customer":
                positions = rng.choice(customer.num_rows, 10, replace=False)
                customer.update(positions, {"c_region": ["ASIA"] * 10})
                continue
            positions = rng.choice(np.flatnonzero(fact.live_mask()), 200,
                                   replace=False)
            if op == "append":
                fact.insert(fact.gather(positions))
            elif op == "update":
                fact.update(positions,
                            {"lo_revenue": rng.integers(1, 100, 200)})
            else:
                fact.delete(positions)
        result = engine.query(sql)
        after = result.stats
        block_rows = default_zone_block_rows(old_rows)
        assert default_zone_block_rows(fact.num_rows) == block_rows
        assert -(-old_rows // block_rows) == blocks
        # the tail: the block the load ended in and every block past it
        tail = -(-fact.num_rows // block_rows) - old_rows // block_rows
        assert not after.prune_gated
        assert after.morsels_skipped >= before.morsels_skipped - tail
        assert after.morsels_skipped + after.morsels_scanned \
            + after.morsels_accepted == old_rows // block_rows + tail
        assert result.rows() == reference.query(sql).rows()


# -- the history machine -------------------------------------------------------


class SummaryHistory(RuleBasedStateMachine):
    """Random write histories against one SSB database: after every
    step the patched summaries equal full builds and pruned, cached
    answers equal the reference."""

    def __init__(self):
        super().__init__()
        self.db = generate_ssb(sf=0.01, seed=11)
        self.fact = self.db.table("lineorder")
        self.rng = np.random.default_rng(0)
        self.cached = AStoreEngine.variant(self.db, "AIRScan_C_P_G")
        self.reference = AStoreEngine.variant(
            self.db, "AIRScan_C_P_G", use_cache=False, use_pruning=False)
        self.zones = zone_maps_for(self.db, store=self.cached.cache)
        self.added = 0

    def teardown(self):
        self.cached.close()
        self.reference.close()

    def live(self, n):
        live = np.flatnonzero(self.fact.live_mask())
        return self.rng.choice(live, min(n, len(live)), replace=False)

    @rule(n=st.integers(1, 1500))
    def append(self, n):
        self.fact.insert(self.fact.gather(self.live(n)))

    @rule(n=st.integers(1, 800))
    def delete_then_append(self, n):
        self.fact.delete(self.live(n))
        self.fact.insert(self.fact.gather(self.live(n // 2 + 1)))

    @rule(n=st.integers(1, 2000))
    def update_measure(self, n):
        positions = self.live(n)
        self.fact.update(positions, {
            "lo_revenue": self.rng.integers(0, 10_000_000, len(positions))})

    @rule(n=st.integers(1, 2000))
    def update_air(self, n):
        positions = self.live(n)
        customers = self.db.table("customer").num_rows
        self.fact.update(positions, {
            "lo_custkey": self.rng.integers(0, customers, len(positions))})

    @rule(n=st.integers(1, 2000))
    def update_group_column(self, n):
        # values past the loaded 0..10 domain: a plan that kept its old
        # lo_discount axis would mis-group (or drop) these rows
        positions = self.live(n)
        self.fact.update(positions, {
            "lo_discount": self.rng.integers(0, 20, len(positions))})

    @rule(n=st.integers(1, 50))
    def update_dimension(self, n):
        customer = self.db.table("customer")
        positions = self.rng.choice(customer.num_rows, n, replace=False)
        region = customer["c_region"].get(int(self.rng.integers(customer.num_rows)))
        customer.update(positions, {"c_region": [region] * n})

    @precondition(lambda self: self.added < 2)
    @rule()
    def add_column(self):
        self.added += 1
        self.fact.add_column(FixedColumn(
            f"lo_extra{self.added}", DataType.INT64,
            data=self.rng.integers(0, 100, self.fact.num_rows)))

    @rule()
    def compact(self):
        self.db.compact("lineorder", store=self.cached.cache)

    @invariant()
    def answers_match_reference(self):
        for sql in (*(SSB_QUERIES[qid] for qid in CHECKED), FACT_GROUP_SQL):
            assert self.cached.query(sql).rows() == \
                self.reference.query(sql).rows(), sql

    @invariant()
    def summaries_equal_full_builds(self):
        assert_summaries_fresh(self.db, self.zones)

    @invariant()
    def verdicts_equal_cold_recompute(self):
        # the plan tier also holds shape templates, which have no verdicts
        for _, bound in self.cached.cache.tier_items("plan", self.db):
            if isinstance(bound, BoundQuery):
                assert_verdicts_cold(self.db, bound)


TestSummaryHistory = SummaryHistory.TestCase
TestSummaryHistory.settings = settings(
    max_examples=4, stateful_step_count=6, deadline=None)
