"""Portable bound plans and the process shard backend (Section 5).

The paper's multicore design partitions the fact table horizontally and
aggregates each partition independently.  The ``thread`` backend realizes
that shape inside one interpreter; this module realizes it across
*processes*, which requires two things the live operator tree cannot do:

* **Portability** — a query compiles to a :class:`BoundQuery`: a picklable
  artifact bundling the variant-rewritten ``OpSpec`` DAG, the leaf-binding
  products (packed :class:`~repro.engine.operators.PredicateFilter`
  vectors, probe predicates, group axes), aggregation metadata, and the
  MVCC snapshot version.  Workers rebuild a fresh operator pipeline from
  it per shard — no closures, no live database references.
* **Zero-copy data** — the parent exports the database once as a
  database image in an anonymous memory file
  (:class:`~repro.core.arena.ColumnArena`); each worker, and the
  parent's own shard 0, maps it read-only and attaches NumPy views, so
  every shard reads the same physical pages.  The parent then adopts
  the image as its live database's storage
  (:meth:`~repro.core.table.Table.adopt`) over shard 0's mapping and
  frees its private arrays, so the host holds the data once; a later
  write copies the buffers it touches first.  The image belongs to the
  database (:class:`DatabaseImage`): every backend over the database at
  the image's stamp, whatever its worker count, attaches to it instead
  of exporting again.

:class:`ProcessShardBackend` attaches to that image and owns a
persistent spawn pool; it maps :class:`ShardTask`\\ s over the pool while
the coordinator runs shard 0 itself over its own attachment; per-shard partial states
(:class:`~repro.engine.aggregate.AggregationState`, gather states, or
projection chunks) and per-operator timings come back as
:class:`ShardOutcome` values that the caller merges in shard order —
exactly the element-wise merge of the paper's Section 5.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import pickle
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import (Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..core import Database
from ..core.arena import AttachedDatabase, ColumnArena, attach_database
from ..core.statistics import fresh_zone_entries, zone_maps_for
from ..errors import ExecutionError, ShardExecutionError
from ..plan.binder import LogicalPlan
from ..plan.expressions import BoundColumn, BoundExpression, bound_columns
from ..plan.optimizer import OpSpec
from .cache import query_cache_for, table_stamps
from .grouping import GroupAxis, total_groups
from .operators import (
    AIRProbe,
    ApplyMask,
    Filter,
    FilterLike,
    GroupCombine,
    MaterializeColumns,
    Morsel,
    MorselDispatcher,
    MorselResult,
    Operator,
    PredicateFilter,
    ReorderState,
    Aggregate,
    Project,
    ValueGather,
    Visible,
)
from .slice import RowRange, dimension_provider, universal_provider


def build_predicate_filter(db: Database, paths, first_dim: str,
                           predicate: BoundExpression,
                           snapshot: Optional[int]) -> PredicateFilter:
    """Evaluate one dimension predicate into a packed vector (the leaf
    stage's kernel), visible rows only."""
    from .expression import evaluate_predicate

    provider = dimension_provider(db, first_dim, paths)
    mask = evaluate_predicate(predicate, provider)
    dim = db.table(first_dim)
    if snapshot is not None or dim.has_deletes:
        mask = mask & dim.live_mask(snapshot)
    return PredicateFilter(mask)


@dataclass
class LeafProducts:
    """Outcome of the leaf-processing stage, in portable form.

    ``filters`` hold packed predicate vectors (Section 4.2) — their
    pickle form ships only the packed bits; ``probes`` are the bound
    predicates of dimensions probed directly through AIR; ``axes`` are
    the group axes (Section 4.3) with their globally-encoded group
    vectors, which is what lets per-shard aggregation states merge
    without re-encoding.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    filters: Dict[str, PredicateFilter] = field(default_factory=dict)
    filter_density: Dict[str, float] = field(default_factory=dict)
    probes: Dict[str, BoundExpression] = field(default_factory=dict)
    probe_selectivity: Dict[str, float] = field(default_factory=dict)
    axes: List[GroupAxis] = field(default_factory=list)


#: Per-block prune verdicts: drop the block / run it / run it with the
#: filter chain proven redundant.
PRUNE_SKIP, PRUNE_SCAN, PRUNE_ACCEPT = 0, 1, 2


def _state_runs(states: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal ``[start, stop)`` runs of equal values in *states*."""
    breaks = np.flatnonzero(np.diff(states)) + 1
    edges = [0, *breaks.tolist(), len(states)]
    return list(zip(edges[:-1], edges[1:]))


def _code_set_verdicts(csm, member: np.ndarray, blocks=slice(None)):
    """``(empty, full)`` verdicts of a membership predicate against a
    :class:`~repro.core.statistics.ColumnCodeSetMap`, for the selected
    *blocks* (every block by default).

    A block is *empty* when its bitmap shares no bit with the passing
    codes (sound even folded: folding only merges codes, so a shared
    bit is a necessary condition for a shared code) and *full* when the
    summary is exact and the block's bitmap is a subset of the passing
    codes.  Dirty blocks (out-of-domain codes present) get no verdict.
    """
    pass_bits = csm.fold_mask(member)
    bits, dirty = csm.bits[blocks], csm.dirty[blocks]
    empty = ~np.bitwise_and(bits, pass_bits[None, :]).any(axis=1)
    if csm.exact:
        # packbits pads with zero bits, so the pad region of csm.bits
        # never intersects ~pass_bits' (set) pad bits
        full = ~np.bitwise_and(bits, ~pass_bits[None, :]).any(axis=1)
    else:
        full = np.zeros(len(bits), dtype=bool)
    if dirty.any():
        empty &= ~dirty
        full &= ~dirty
    return empty, full


class BlockVerdicts(NamedTuple):
    """One ``zonestate`` entry: the per-block prune verdicts of a
    predicate signature, with what the entry was derived under.

    ``domains`` holds the dictionary cardinality of each ``codes-eq``
    column (``-1`` when not dictionary-coded): the only fact-table
    quantity a verdict depends on beyond the per-block summaries, so a
    change to it means no block's old verdict can be kept.  ``aux`` is
    the one-slot list :meth:`BoundQuery.prune_ranges` fills with the
    derived survivor ranges; every new entry gets a fresh one."""

    states: np.ndarray
    block_rows: int
    gated: bool
    aux: list
    domains: Tuple[int, ...]


def _gate(states: np.ndarray) -> bool:
    """The cost gate's verdict on *states*: expected payoff — skipped
    blocks plus half weight for proven-accepted ones — must beat a
    floor fraction of the table plus a penalty per maximal survivor run
    (fragmented survivors trade the zero-copy identity scan for
    scattered morsels, so fragmentation is priced explicitly)."""
    payoff = (np.count_nonzero(states == PRUNE_SKIP)
              + 0.5 * np.count_nonzero(states == PRUNE_ACCEPT))
    survivors = (states != PRUNE_SKIP).astype(np.int8)
    runs = (int(np.count_nonzero(np.diff(survivors) == 1))
            + int(survivors[0]))
    return bool(payoff < (GATE_MIN_FRACTION * len(states)
                          + GATE_RUN_PENALTY * runs))


@dataclass
class PruneCounters:
    """What the data-skipping layer did for one execution (block units)."""

    blocks_skipped: int = 0
    blocks_accepted: int = 0
    blocks_scanned: int = 0
    gated: int = 0               # verdict passes bypassed by the cost gate
    pruned: bool = False


#: The cost gate: run the pruned path only when the verdicts promise at
#: least this fraction of blocks skipped (accepted blocks count half — a
#: proven-accepted block still scans, it only skips its filter chain).
#: Below the threshold, verdict bookkeeping and fragmented survivor
#: morsels cost more than the skipped blocks recoup (the Q3-family
#: regression), so the scan runs exactly as if pruning were off.
GATE_MIN_FRACTION = 0.25

#: Each maximal run of surviving blocks charges this many blocks against
#: the gate's payoff.  Fragmented survivors (a mid-skip-fraction
#: predicate orthogonal to the leading cluster keys — Q4.1) turn into
#: scattered position gathers whose cost grows with the fragment count;
#: a contiguous survivor band (Q1) or a near-total skip (Q3.2) is barely
#: charged at all.
GATE_RUN_PENALTY = 2.5

#: Survivor bands shorter than this many rows are batched into shared
#: morsels.  A highly selective predicate with no clustering-prefix
#: component (Q2: part hierarchy, no year) leaves one short band per
#: outer cluster, and a morsel per band pays the fixed pipeline cost —
#: operator construction, per-task aggregation state, a dispatch — per
#: band, which at small scale outweighs the scan the skip saved.
COALESCE_ROWS = 32768


@dataclass(eq=False)
class BoundQuery:
    """A compiled, portable query: DAG + leaf products + plan metadata.

    This is the artifact every backend executes.  Inline backends bind
    its pipelines in-process; the process backend pickles it to workers,
    each of which rebuilds the pipeline against its attached copy of the
    database and runs one horizontal shard.

    ``eq=False`` keeps identity semantics: a bound plan is cached and
    shipped *by object* (the query cache returns the same instance for
    repeated queries, which is what lets the shard backend memoize its
    pickle per plan), so value equality would only invite accidental
    deep comparisons of leaf products.

    ``cache_key``/``cache_events`` are bookkeeping stamped on by
    :meth:`repro.engine.executor.AStoreEngine.compile` when the query
    cache is active: the plan-tier key (which doubles as the result-tier
    key) and the per-compile hit/miss events folded into
    :class:`~repro.engine.result.ExecutionStats`.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    variant: str
    scan: str                        # "column" | "row" | "projection"
    specs: Tuple[OpSpec, ...]        # variant-rewritten operator DAG
    logical: LogicalPlan
    leaf: LeafProducts
    snapshot: Optional[int]
    morsel_rows: int
    chunk_rows: int
    use_array_hint: bool             # the optimizer's §4.3 estimate
    leaf_seconds: float = 0.0        # time spent producing ``leaf``
    cache_key: Optional[tuple] = None
    cache_events: Dict[str, int] = field(default_factory=dict)
    prune_enabled: bool = True       # consult zone maps in make_morsels
    zone_block_rows: int = 0         # 0 = per-table default block size

    def __getstate__(self) -> dict:
        # the reorder state is observed-runtime, not plan content: each
        # process rebuilds its own (a lock also cannot cross a pickle);
        # block-state memos are per-database-object and cannot travel
        state = dict(self.__dict__)
        state.pop("_reorder", None)
        state.pop("_prune_states", None)
        return state

    @property
    def ngroups(self) -> int:
        """Dense aggregation-array size (product of axis cardinalities)."""
        return (total_groups([axis.card for axis in self.leaf.axes])
                if self.leaf.axes else 1)

    def encoded_columns(self) -> FrozenSet[str]:
        """The root-table columns whose values this plan bakes in.

        Dimension content (predicate vectors, group axes) is stamped
        exactly; of the fact table, a plan encodes only the value domain
        of its GROUP BY keys on the fact table
        (:func:`~repro.engine.grouping.build_axes`).  Everything else it
        took from fact data is an estimate that orders conjuncts or picks
        the aggregation layout, never rows: the sampled conjunct
        selectivities and ``use_array_hint``.  Fact predicates keep their
        literals (dictionary codes are resolved at verdict and scan
        time), and the binder's root choice by row count only firms up
        as the root grows.  A fact write that touches none of these
        columns therefore leaves the plan as it would compile now."""
        root = self.logical.root
        return frozenset(key.column.name for axis in self.leaf.axes
                         for key in axis.keys if key.column.table == root)

    # -- pipeline binding ---------------------------------------------------

    def reorder_state(self) -> ReorderState:
        """The shared observed-pass-rate state of this plan's filters
        (per process; lazily created, never pickled).  ``setdefault``
        keeps the first-use creation atomic under the GIL, so two
        concurrent pipeline binds on a shared cached plan can never end
        up observing two different states (torn first-use sizing)."""
        state = self.__dict__.get("_reorder")
        if state is None:
            state = self.__dict__.setdefault("_reorder", ReorderState())
        return state

    def filter_ops(self, defer: bool = False) -> List[FilterLike]:
        """Bind the filter-like DAG nodes, ordered by runtime selectivity.

        The plan orders filters by *estimated* selectivity; once the
        predicate vectors exist their exact density is known, so the
        bound operators are re-sorted on the refreshed numbers (stable,
        like the plan order), and the order further tracks the
        pass-rates *observed* on earlier morsels (with periodic
        re-exploration of the static order) — conjunct order never
        changes results, only which step shrinks the morsel first.
        """
        leaf = self.leaf
        ops: List[FilterLike] = []
        for spec in self.specs:
            if spec.op == "filter":
                ops.append(Filter(spec.payload, selectivity=spec.selectivity,
                                  defer=defer))
            elif spec.op == "air-probe":
                dd = spec.payload
                if dd.first_dim in leaf.filters:
                    ops.append(AIRProbe(
                        dd.first_dim, "vector", leaf.filters[dd.first_dim],
                        selectivity=leaf.filter_density[dd.first_dim],
                        defer=defer))
                else:
                    ops.append(AIRProbe(
                        dd.first_dim, "predicate", leaf.probes[dd.first_dim],
                        selectivity=leaf.probe_selectivity[dd.first_dim],
                        defer=defer))
        static = sorted(range(len(ops)), key=lambda i: ops[i].selectivity)
        if len(ops) > 1:
            state = self.reorder_state()
            order = state.order(static)
            for i in order:
                ops[i].observer = (state, i)
        else:
            order = static
        return [ops[i] for i in order]

    def scan_pipeline(self) -> List[Operator]:
        """Phase-2 pipeline: filters/probes then the Measure Index."""
        return [*self.filter_ops(), Visible(), GroupCombine(self.leaf.axes)]

    def aggregate_pipeline(self, use_array: bool) -> List[Operator]:
        """Phase-3 pipeline over already-scanned morsels."""
        return [Aggregate(self.logical.aggregates, self.ngroups,
                          use_array or not self.leaf.axes)]

    def column_pipeline(self, use_array: bool) -> List[Operator]:
        """Scan + aggregate fused into one trip (the per-shard form)."""
        return [*self.scan_pipeline(), *self.aggregate_pipeline(use_array)]

    def row_pipeline(self) -> List[Operator]:
        """Full-tuple pipeline of the ``AIRScan_R*`` variants."""
        ops: List[Operator] = [MaterializeColumns(self.referenced_columns())]
        ops.extend(self.filter_ops(defer=True))
        ops.append(ApplyMask())
        ops.append(ValueGather(self.logical))
        return ops

    def projection_pipeline(self) -> List[Operator]:
        """Pure SPJ: filters then projection collection."""
        return [*self.filter_ops(), Visible(),
                Project(self.logical.projection_columns)]

    # -- decisions ----------------------------------------------------------

    def decide_use_array(self, total_selected: int) -> bool:
        """Section 4.3's sparsity check against a known selection size:
        the dense array is only worthwhile when it is not hugely larger
        than the number of tuples feeding it."""
        if not (self.use_array_hint and self.leaf.axes):
            return False
        return self.ngroups <= max(4096, 8 * total_selected)

    def estimated_selected(self, nbase: int) -> int:
        """Pre-dispatch selection estimate from the bound selectivities.

        The process backend fuses scan and aggregation into one worker
        trip, so the §4.3 decision cannot wait for the actual selection
        size; predicate-vector densities are exact and fact-conjunct
        selectivities are sampled, so the product is a sound stand-in.
        """
        leaf = self.leaf
        fraction = 1.0
        for spec in self.specs:
            if spec.op == "filter":
                sel = spec.selectivity
            elif spec.op == "air-probe":
                dim = spec.payload.first_dim
                sel = (leaf.filter_density.get(dim)
                       if dim in leaf.filters
                       else leaf.probe_selectivity.get(dim))
            else:
                continue
            if sel is not None:
                fraction *= min(1.0, max(0.0, float(sel)))
        return max(1, int(nbase * fraction))

    # -- data binding --------------------------------------------------------

    def visibility(self, db: Database) -> Optional[np.ndarray]:
        """The root table's visibility mask over its physical rows (live
        now, or at the plan's MVCC snapshot), or ``None`` when every
        physical row is visible — no deletes and no snapshot.

        Every scan covers the physical band ``[0, num_rows)``; deletes
        and snapshots only hide rows inside it, so they never turn the
        band into a row-id array."""
        table = db.table(self.logical.root)
        if self.snapshot is None and not table.has_deletes:
            return None
        return table.live_mask(self.snapshot)

    def morsel(self, db: Database,
               positions: Union[None, RowRange, np.ndarray],
               visible: Optional[np.ndarray] = None) -> Morsel:
        """A morsel over *positions*: ``None`` is the identity morsel
        (every physical root row, in order — zero-copy column views, and
        the first refinement skips its position gather), a ``RowRange``
        a contiguous band (still views), an array a positional gather.

        *visible* is the table-wide :meth:`visibility` mask; the morsel
        carries its cut of it only when some of its rows are hidden."""
        if visible is not None:
            if isinstance(positions, RowRange):
                visible = visible[positions.start:positions.stop]
            elif positions is not None:
                visible = visible[positions]
            if visible.all():
                visible = None
        return Morsel(positions, universal_provider(
            db, self.logical.root, self.logical.paths, positions),
            visible=visible)

    # -- data skipping -------------------------------------------------------

    def prune_steps(self):
        """The summary-checkable steps of this plan.

        Returns ``(steps, complete, signature, involved)``: the steps as
        ``("interval", ColumnInterval)`` / ``("codes-eq",
        CodeSetPredicate)`` / ``("codes", fk_column, PredicateFilter)``
        tuples, whether *every* filter-like node is checkable (the
        precondition for fully-accepting a block), a hashable signature
        of the checks (so block verdicts are shareable between plans
        with the same predicate set), and the tables the verdicts were
        derived from (their stamps invalidate shared verdicts).
        """
        steps: List[tuple] = []
        signature: List[tuple] = []
        involved = {self.logical.root}
        complete = True
        for spec in self.specs:
            if spec.op == "filter":
                if spec.prune is not None and spec.prune[0] == "interval":
                    iv = spec.prune[1]
                    steps.append(spec.prune)
                    signature.append(("interval", iv.column, iv.lo, iv.hi,
                                      iv.exact))
                elif spec.prune is not None and spec.prune[0] == "codes-eq":
                    cs = spec.prune[1]
                    steps.append(spec.prune)
                    signature.append(("codes-eq", cs.column, cs.values))
                else:
                    complete = False
            elif spec.op == "air-probe":
                dd = spec.payload
                pf = self.leaf.filters.get(dd.first_dim)
                if spec.prune is not None and pf is not None:
                    fk = self._fk_column(dd.first_dim)
                    if fk is not None:
                        steps.append(("codes", fk, pf))
                        signature.append(("codes", fk, dd.first_dim,
                                          dd.predicate, self.snapshot))
                        involved.add(dd.first_dim)
                        involved.update(
                            self.logical.subtree_of(dd.first_dim))
                        continue
                complete = False
        return steps, complete, tuple(signature), involved

    def _fk_column(self, first_dim: str) -> Optional[str]:
        """The root-table AIR column referencing *first_dim*."""
        for path in self.logical.paths:
            ref = path.references[0]
            if ref.parent_table == first_dim:
                return ref.child_column
        return None

    @staticmethod
    def _step_columns(steps: List[tuple]) -> FrozenSet[str]:
        """The root-table columns the verdicts of *steps* summarise:
        interval and code-set columns, and the probes' FK columns."""
        return frozenset(step[1] if step[0] == "codes" else step[1].column.name
                         for step in steps)

    def _step_domains(self, db: Database,
                      steps: List[tuple]) -> Tuple[int, ...]:
        """The dictionary cardinality of each ``codes-eq`` column (see
        :class:`BlockVerdicts`)."""
        from ..core.column import DictColumn

        table = db.table(self.logical.root)
        domains = []
        for step in steps:
            if step[0] == "codes-eq":
                column = table[step[1].column.name]
                domains.append(column.cardinality
                               if isinstance(column, DictColumn) else -1)
        return tuple(domains)

    def _block_states(self, db: Database, store=None):
        """Per-zone-block prune verdicts, or ``None`` when nothing is
        checkable.  Returns ``(states, block_rows, gated, aux)`` — *aux*
        is the cached entry's one-slot list for derived survivor ranges
        (see :meth:`prune_ranges`), ``None`` when nothing was cached.

        Memoized twice: per plan against the root table's mutation
        stamp (warm plans skip even the store lookup), and in *store*
        (the database's shared query cache by default) keyed by the
        *predicate signature* — so repeated cold compiles of the same
        (or a same-shaped) query share one verdict evaluation,
        invalidated by the stamps of every table it derived from.

        A miss after a fact-only write is *patched* like a block
        summary: when the dimension stamps are unchanged and the root's
        journal bridges the gap, only the blocks holding rows a
        journaled write wrote a checked column at, and the blocks past
        the old end of the table, are re-verdicted (a delete, or an
        update of an unchecked measure, re-verdicts none).  A changed
        block size or code domain, a barrier or a moved dimension stamp
        computes every block.  Patched states equal the full ones.

        ``gated`` is the cost gate's decision, made from the verdicts
        themselves: when the expected payoff — skipped blocks plus half
        weight for proven-accepted ones — falls below
        :data:`GATE_MIN_FRACTION` of the table, pruning cannot recoup
        its own bookkeeping and the caller runs the plain scan."""
        root = self.logical.root
        stamp = db.table(root).mutation_count
        memo = self.__dict__.get("_prune_states")
        if (memo is not None and memo[0]() is db and memo[1] == stamp):
            return memo[2], memo[3], memo[4], memo[5]
        steps, complete, signature, involved = self.prune_steps()
        states: Optional[np.ndarray] = None
        block_rows = 0
        gated = False
        aux: Optional[list] = None
        if steps:
            store = query_cache_for(db) if store is None else store
            key = ("zonestate", root, self.zone_block_rows, signature)
            hit = store.get("zone", key, db)
            if hit is None:
                stamps = table_stamps(db, involved)  # read before compute
                hit = self._verdicts(db, steps, complete, store, key, stamps)
            if hit is not None:
                states, block_rows, gated, aux = hit[:4]
        self.__dict__["_prune_states"] = (weakref.ref(db), stamp,
                                          states, block_rows, gated, aux)
        return states, block_rows, gated, aux

    def _verdicts(self, db: Database, steps: List[tuple], complete: bool,
                  store, key: tuple, stamps) -> Optional[BlockVerdicts]:
        """Compute (or patch) and store the verdicts of *key*; ``None``
        when nothing is checkable or the table is empty."""
        root = self.logical.root
        zones = zone_maps_for(db, store=store, block_rows=self.zone_block_rows)
        block_rows = zones.block_rows_for(root)
        nrows = db.table(root).num_rows
        if nrows == 0:
            return None
        nblocks = -(-nrows // block_rows)
        domains = self._step_domains(db, steps)
        # the root's stamp first: the journal bridges it, the rest pin
        previous, touched = zones.prior(
            key, sorted(stamps, key=lambda stamp: stamp[0] != root),
            self._step_columns(steps), pinned=True)
        if previous is not None and (previous.block_rows != block_rows
                                     or previous.domains != domains):
            previous = None
        states = None
        if previous is not None:
            old = len(previous.states)
            touched = np.union1d(touched, np.arange(old, nblocks))
            # even with nothing touched this brings the summaries the
            # steps read current (a cheap patch), so the zone tier — and
            # an arena export of it — never lags the verdicts
            patch = self._compute_block_states(db, zones, steps, complete,
                                               nblocks, touched)
            if patch is None:
                previous = None
            elif len(touched):
                states = np.empty(nblocks, dtype=np.int8)
                states[:old] = previous.states
                states[touched] = patch
            else:
                states = previous.states
        if previous is None:
            states = self._compute_block_states(db, zones, steps, complete,
                                                nblocks)
        if states is None:
            return None
        verdicts = BlockVerdicts(states, block_rows, _gate(states), [None],
                                 domains)
        store.put_summary(key, verdicts, stamps, states.nbytes,
                          patched=previous is not None)
        return verdicts

    def _compute_block_states(self, db: Database, zones, steps: List[tuple],
                              complete: bool, nblocks: int,
                              blocks: Optional[np.ndarray] = None
                              ) -> Optional[np.ndarray]:
        """The verdicts of the selected *blocks* (every block by
        default) from the current summaries, or ``None`` when no step
        is checkable."""
        root = self.logical.root
        sel = slice(None) if blocks is None else blocks
        states = np.full(nblocks if blocks is None else len(blocks),
                         PRUNE_ACCEPT if complete else PRUNE_SCAN,
                         dtype=np.int8)
        checked = 0
        for step in steps:
            if step[0] == "interval":
                iv = step[1]
                zm = zones.column(root, iv.column.name)
                if zm is None or zm.nblocks != nblocks:
                    np.minimum(states, PRUNE_SCAN, out=states)
                    continue
                mins, maxs = zm.mins[sel], zm.maxs[sel]
                lo = -np.inf if iv.lo is None else iv.lo
                hi = np.inf if iv.hi is None else iv.hi
                empty = (maxs < lo) | (mins > hi)
                full = (iv.exact & (mins >= lo) & (maxs <= hi)
                        if iv.exact else np.zeros(len(states), dtype=bool))
            elif step[0] == "codes-eq":
                cs = step[1]
                verdicts = self._code_set_eq_verdicts(db, zones, cs, nblocks,
                                                      sel)
                if verdicts is None:
                    np.minimum(states, PRUNE_SCAN, out=states)
                    continue
                empty, full = verdicts
            else:
                _, fk, pf = step
                csm = zones.code_set(root, fk)
                if (csm is None or csm.nblocks != nblocks
                        or csm.domain != len(pf.mask)):
                    # no summary, or the dimension grew since its
                    # leaf was bound: the blocks are scanned, not judged
                    np.minimum(states, PRUNE_SCAN, out=states)
                    continue
                empty, full = _code_set_verdicts(csm, pf.mask, sel)
            checked += 1
            states[~full] = np.minimum(states[~full], PRUNE_SCAN)
            states[empty] = PRUNE_SKIP
        if not checked:
            return None
        return states

    def _code_set_eq_verdicts(self, db: Database, zones, cs, nblocks: int,
                              blocks=slice(None)):
        """SKIP/ACCEPT verdicts of one fact-table equality/IN predicate
        against the column's code-set summary, for the selected
        *blocks*, or ``None`` when the column is not dictionary-coded
        (or the summary is stale-shaped).
        """
        from ..core.column import DictColumn

        root = self.logical.root
        csm = zones.code_set(root, cs.column.name)
        if csm is None or csm.nblocks != nblocks:
            return None
        column = db.table(root)[cs.column.name]
        if (not isinstance(column, DictColumn)
                or csm.domain != column.cardinality):
            return None
        try:
            codes = column.dictionary.lookup_many(list(cs.values))
        except (TypeError, ValueError):
            return None
        member = np.zeros(csm.domain, dtype=bool)
        member[codes[codes >= 0]] = True
        return _code_set_verdicts(csm, member, blocks)

    def warm_zone_maps(self, db: Database) -> None:
        """Build (or revalidate) the zone maps this plan prunes with.

        Called by the parent before a process-backend arena export so
        the summaries ride in the exported image."""
        if self.prune_enabled:
            self._block_states(db)

    def prune_ranges(self, db: Database,
                     counters: Optional[PruneCounters] = None
                     ) -> List[tuple]:
        """The root-table row ranges left to scan after zone-map pruning.

        Returns ``[(row_start, row_stop, accepted), …]``: the runs of
        kept blocks when the verdicts apply, the whole band ``[(0, n,
        False)]`` when pruning is off, cost-gated or has nothing to act
        on.  Ranges are never materialized as position arrays, so
        morsels over them keep zero-copy contiguous column views
        (``accepted`` runs are additionally proven to pass every filter
        by zone map alone).  Verdicts summarise physical rows, so they
        hold for any visible subset: deletes and snapshots are applied
        per morsel afterwards (:meth:`visibility`).  Counters (block
        units) feed ``ExecutionStats``.
        """
        nrows = db.table(self.logical.root).num_rows
        whole = [(0, nrows, False)]
        if not self.prune_enabled or nrows == 0:
            return whole
        states, block_rows, gated, aux = self._block_states(db)
        if states is None:
            return whole
        if gated or bool((states == PRUNE_SCAN).all()):
            # the cost gate: too few skippable blocks to recoup the
            # pruned path's own bookkeeping — run the plain scan; with
            # nothing to skip or accept, stay off the hot path entirely
            if counters is not None:
                counters.blocks_scanned += len(states)
                counters.gated += int(gated)
                counters.pruned = True
            return whole
        # survivors are exactly the kept blocks' row ranges — derived
        # purely from the verdicts, so they live in the zonestate entry's
        # aux slot (same key, same stamp set): repeated cold compiles of
        # this signature skip the run scan and the counter tallies
        derived = aux[0] if aux is not None else None
        if derived is None:
            skipped = accepted = scanned = 0
            ranges: List[tuple] = []
            for s, e in _state_runs(states):
                state = states[s]
                n = e - s
                if state == PRUNE_SKIP:
                    skipped += n
                    continue
                if state == PRUNE_ACCEPT:
                    accepted += n
                else:
                    scanned += n
                ranges.append((s * block_rows, min(e * block_rows, nrows),
                               state == PRUNE_ACCEPT))
            derived = (tuple(ranges), skipped, accepted, scanned)
            if aux is not None:
                aux[0] = derived
        ranges, skipped, accepted, scanned = derived
        if counters is not None:
            counters.pruned = True
            counters.blocks_skipped += skipped
            counters.blocks_accepted += accepted
            counters.blocks_scanned += scanned
        return list(ranges)

    @staticmethod
    def partition_ranges(ranges: Sequence[tuple],
                         parts: int) -> List[List[tuple]]:
        """Cut ``(start, stop, accepted)`` ranges into at most *parts*
        row-balanced partitions, preserving order (the range analogue of
        :meth:`MorselDispatcher.partition`, deterministic so every shard
        worker derives identical boundaries)."""
        total = sum(stop - start for start, stop, _ in ranges)
        parts = max(1, min(parts, total)) if total else 1
        pending = [(s, e, a) for s, e, a in ranges if e > s]
        if parts == 1:
            # the serial / per-shard case: no quotas to balance
            return [pending] if pending else [[]]
        quotas = [total // parts + (1 if i < total % parts else 0)
                  for i in range(parts)]
        out: List[List[tuple]] = []
        cur = 0
        for quota in quotas:
            part: List[tuple] = []
            need = quota
            while need > 0 and cur < len(pending):
                s, e, a = pending[cur]
                take = min(need, e - s)
                part.append((s, s + take, a))
                need -= take
                if take == e - s:
                    cur += 1
                else:
                    pending[cur] = (s + take, e, a)
            if part:
                out.append(part)
        return out or [[]]

    @staticmethod
    def chunk_ranges(ranges: Sequence[tuple],
                     morsel_rows: int) -> List[tuple]:
        """Subdivide ranges into at most ``morsel_rows``-row pieces
        (0 = leave whole), preserving order."""
        if morsel_rows <= 0:
            return list(ranges)
        out: List[tuple] = []
        for s, e, a in ranges:
            for cs in range(s, e, morsel_rows):
                out.append((cs, min(cs + morsel_rows, e), a))
        return out

    @staticmethod
    def coalesce_ranges(pieces: Sequence[tuple],
                        cap: int = COALESCE_ROWS) -> List[List[tuple]]:
        """Group consecutive short survivor pieces into shared morsels.

        Pieces shorter than *cap* rows are batched, in order, until a
        group reaches *cap*; a piece of *cap* rows or more keeps its own
        group (and with it the zero-copy range provider).  Merging is
        always sound: a group's morsel is ``prefiltered`` only when
        every member was proven-accepted, otherwise the filter chain
        re-runs — a no-op on accepted rows, merely un-saved work."""
        groups: List[List[tuple]] = []
        cur: List[tuple] = []
        cur_rows = 0
        for start, stop, accepted in pieces:
            n = stop - start
            if n >= cap:
                if cur:
                    groups.append(cur)
                    cur, cur_rows = [], 0
                groups.append([(start, stop, accepted)])
                continue
            if cur and cur_rows + n > cap:
                groups.append(cur)
                cur, cur_rows = [], 0
            cur.append((start, stop, accepted))
            cur_rows += n
        if cur:
            groups.append(cur)
        return groups

    def _morsels_from_ranges(self, db: Database, ranges: Sequence[tuple],
                             parts: int, morsel_rows: int,
                             allow_identity: bool,
                             visible: Optional[np.ndarray]) -> List[Morsel]:
        """Morsels over contiguous bands (pruning survivors, or the whole
        table as one band).

        A piece covering the whole table is the identity morsel; any
        other lone piece carries a :class:`~repro.engine.slice.RowRange`,
        so root-table column access stays zero-copy views — a scan pays
        per *surviving* row, not per visited position.  Consecutive
        short pieces coalesce into one position-array morsel per
        :data:`COALESCE_ROWS` rows (within a partition, so the degree of
        parallelism never drops below *parts*): gathering a few thousand
        positions is far cheaper than a pipeline instance per band.
        Pipelines that must not alias storage (projections) get owned
        position arrays throughout.  Each morsel carries its cut of the
        *visible* mask (see :meth:`morsel`).
        """
        cap = (min(COALESCE_ROWS, morsel_rows) if morsel_rows > 0
               else COALESCE_ROWS)
        groups = [group
                  for part in self.partition_ranges(ranges, parts)
                  for group in self.coalesce_ranges(
                      self.chunk_ranges(part, morsel_rows), cap)]
        groups = [group for group in groups if group]
        if not groups:
            return [self.morsel(db, np.empty(0, dtype=np.int64))]
        nrows = db.table(self.logical.root).num_rows
        morsels: List[Morsel] = []
        for group in groups:
            if len(group) > 1:
                positions = np.concatenate(
                    [np.arange(s, e, dtype=np.int64) for s, e, _ in group])
            else:
                start, stop, _ = group[0]
                if not allow_identity:
                    positions = np.arange(start, stop, dtype=np.int64)
                elif len(groups) == 1 and stop - start == nrows:
                    positions = None
                else:
                    positions = RowRange(start, stop)
            morsel = self.morsel(db, positions, visible)
            morsel.prefiltered = all(a for _, _, a in group)
            morsels.append(morsel)
        return morsels

    def make_morsels(self, db: Database, visible: Optional[np.ndarray],
                     parts: int, morsel_rows: int,
                     allow_identity: bool = True,
                     prune: Optional[PruneCounters] = None) -> List[Morsel]:
        """Prune the root table against the zone maps, then cut the
        surviving bands into morsels.

        Blocks no row of which can pass are dropped, and morsels made
        entirely of fully-accepted blocks are marked ``prefiltered`` so
        the filter chain passes them through untouched; *prune* collects
        the block counters.  Pruned, cost-gated or unpruned alike, the
        scan stays contiguous *ranges* (zero-copy views, see
        :meth:`_morsels_from_ranges`); *visible* (:meth:`visibility`)
        hides deleted or snapshot-invisible rows inside them.
        ``allow_identity`` must be False for pipelines whose *outputs*
        could pass a fetched slice through unchanged (projections):
        range slices are views of live column storage, and a result must
        never alias buffers that later in-place updates rewrite.
        Aggregating pipelines always reduce into owned arrays, so they
        keep the zero-copy fast path.
        """
        return self._morsels_from_ranges(
            db, self.prune_ranges(db, prune), parts, morsel_rows,
            allow_identity, visible)

    def referenced_columns(self) -> List[BoundColumn]:
        """Every column the full-tuple variants must materialize."""
        logical = self.logical
        needed: List[BoundColumn] = []
        seen = set()

        def add(expr):
            for column in bound_columns(expr):
                if column not in seen:
                    seen.add(column)
                    needed.append(column)

        for spec in self.specs:
            if spec.op == "filter":
                add(spec.payload)
        for predicate in self.leaf.probes.values():
            add(predicate)
        for key in logical.group_keys:
            add(key.column)
        for spec in logical.aggregates:
            if spec.expr is not None:
                add(spec.expr)
        for key in logical.projection_columns:
            add(key.column)
        return needed

    # -- shard execution (worker side) --------------------------------------

    def run_shard(self, db: Database, shard: int, nshards: int,
                  use_array: Optional[bool]) -> "ShardOutcome":
        """Rebuild the pipeline and run one horizontal shard to completion.

        Pruning happens *before* partitioning so every worker derives
        the same surviving rows and therefore identical shard
        boundaries; block counters are reported by shard 0 only (all
        shards compute the same verdicts).  Shards are row-balanced cuts
        of the surviving ranges, so each scans contiguous ``RowRange``
        bands of zero-copy views, with deletes and snapshots hidden by
        the visibility mask.
        """
        counters = PruneCounters()
        range_parts = self.partition_ranges(self.prune_ranges(db, counters),
                                            nshards)
        if shard >= len(range_parts):  # shard 0 always runs
            return ShardOutcome()
        if self.scan == "row":
            rows = self.chunk_rows
            factory = self.row_pipeline
        elif self.scan == "projection":
            rows = 0
            factory = self.projection_pipeline
        else:
            rows = self.morsel_rows
            factory = lambda: self.column_pipeline(bool(use_array))  # noqa: E731
        morsels = self._morsels_from_ranges(
            db, range_parts[shard], 1, rows, self.scan != "projection",
            self.visibility(db))
        state = self.reorder_state()
        reorders_before = state.reorders
        results = MorselDispatcher("serial").run(morsels, factory)
        outcome = ShardOutcome.collect(results)
        if shard == 0 and counters.pruned:
            outcome.morsels_skipped = counters.blocks_skipped
            outcome.morsels_accepted = counters.blocks_accepted
            outcome.morsels_scanned = counters.blocks_scanned
            outcome.prune_gated = counters.gated
        outcome.reorders = state.reorders - reorders_before
        return outcome


# -- shard plumbing ----------------------------------------------------------


@dataclass
class ShardOutcome:
    """One shard's merged partial results, as shipped back to the parent.

    ``finishes`` maps operator label to either a merged partial state
    (anything exposing ``merge``, e.g. aggregation/gather states) or, for
    stateless collectors like ``project``, the ordered list of per-morsel
    values; the parent merges outcomes across shards in shard order, so
    results never depend on scheduling.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    finishes: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    selected: int = 0
    morsels: int = 0
    seconds: float = 0.0
    morsels_skipped: int = 0
    morsels_accepted: int = 0
    morsels_scanned: int = 0
    prune_gated: int = 0
    reorders: int = 0

    @classmethod
    def collect(cls, results: Sequence[MorselResult]) -> "ShardOutcome":
        outcome = cls(morsels=len(results))
        for result in results:
            outcome.selected += len(result.morsel)
            outcome.seconds += result.seconds
            for label, seconds in result.timings.items():
                outcome.timings[label] = (
                    outcome.timings.get(label, 0.0) + seconds)
            for label, value in result.finishes.items():
                current = outcome.finishes.get(label)
                if current is None:
                    outcome.finishes[label] = (
                        value if hasattr(value, "merge") else [value])
                elif hasattr(current, "merge"):
                    outcome.finishes[label] = current.merge(value)
                else:
                    current.append(value)
        return outcome


def fold_outcomes(outcomes: Sequence[ShardOutcome], stats,
                  agg_labels: Tuple[str, ...]) -> None:
    """Fold shard timings and counters into *stats*.

    Operator labels starting with one of *agg_labels* count as the
    aggregation phase, everything else as the scan phase — the same
    attribution the inline backends make per morsel.
    """
    stats.morsels += sum(o.morsels for o in outcomes)
    stats.rows_selected += sum(o.selected for o in outcomes)
    stats.morsels_skipped += sum(o.morsels_skipped for o in outcomes)
    stats.morsels_accepted += sum(o.morsels_accepted for o in outcomes)
    stats.morsels_scanned += sum(o.morsels_scanned for o in outcomes)
    stats.prune_gated += sum(o.prune_gated for o in outcomes)
    stats.filters_reordered += sum(o.reorders for o in outcomes)
    for outcome in outcomes:
        for label, seconds in outcome.timings.items():
            stats.operator_seconds[label] = (
                stats.operator_seconds.get(label, 0.0) + seconds)
            if label.startswith(agg_labels):
                stats.aggregation_seconds += seconds
            else:
                stats.scan_seconds += seconds


def merge_outcome_states(outcomes: Sequence[ShardOutcome]):
    """Merge per-shard partial states in shard order (element-wise §5)."""
    merged = None
    for outcome in outcomes:
        for partial in outcome.finishes.values():
            merged = partial if merged is None else merged.merge(partial)
    return merged


@dataclass
class ShardTask:
    """One worker assignment: a plan reference + shard index.

    ``plan_seq`` names a plan object (stable per object, unique per
    parent process); a worker that holds the hydrated plan runs the
    shard from it, so a warm task is a descriptor of ~120 pickled bytes.
    ``plan_bytes`` — the plan's pickle, serialized once per plan object
    and memoized by the backend — rides only on a plan's first run and
    on the resend after a :class:`PlanMiss`.
    """

    plan_seq: int
    shard: int
    nshards: int
    use_array: Optional[bool] = None
    plan_bytes: Optional[bytes] = None


@dataclass(frozen=True)
class PlanMiss:
    """A worker's reply to a plan-reference task naming a plan it does
    not hold (never shipped to it, or evicted from its LRU)."""

    plan_seq: int


#: Hydrated plans a shard worker keeps, least recently used evicted
#: first.  A warm plan keeps its unpacked predicate vectors, prune
#: memos and ``ReorderState`` across queries; the SSB rotation is 13.
WORKER_PLAN_CAPACITY = 16

_ATTACHED: Optional[AttachedDatabase] = None
_PLANS: "OrderedDict[int, object]" = OrderedDict()


def _seed_zone_maps(attached: AttachedDatabase) -> AttachedDatabase:
    """Seed an attached database's cache with the exporter's zone maps.

    Stamped with the attached tables' — immutable — mutation counts, so
    shard-side pruning starts from the exact summaries the parent
    built, zero-copy.
    """
    cache = query_cache_for(attached.db)
    for store_key, value in attached.zone_maps:
        table = store_key[1]
        stamps = ((table, attached.db.table(table).mutation_count),)
        cache.put("zone", store_key, value, stamps, value.nbytes)
    return attached


def _worker_attach(manifest) -> None:
    """Pool initializer: attach the exported image once per worker."""
    global _ATTACHED
    _ATTACHED = _seed_zone_maps(attach_database(manifest))


def _lru_plan(plans: "OrderedDict[int, object]", seq: int,
              plan_bytes: Optional[bytes]):
    """The hydrated plan *seq* from *plans*, unpickled from *plan_bytes*
    on a miss (``None`` when it is absent and no bytes came with it);
    the least recently used plan beyond ``WORKER_PLAN_CAPACITY`` goes."""
    plan = plans.get(seq)
    if plan is not None:
        plans.move_to_end(seq)
    elif plan_bytes is not None:
        plan = plans[seq] = pickle.loads(plan_bytes)
        while len(plans) > WORKER_PLAN_CAPACITY:
            plans.popitem(last=False)
    return plan


def _worker_run(task: ShardTask) -> Union[ShardOutcome, PlanMiss]:
    """Run one shard from the worker's plan LRU (pool workers are
    single-threaded, so the LRU needs no lock)."""
    if _ATTACHED is None:  # pragma: no cover - initializer always runs
        raise ExecutionError("shard worker has no attached database")
    plan = _lru_plan(_PLANS, task.plan_seq, task.plan_bytes)
    if plan is None:
        return PlanMiss(task.plan_seq)
    return plan.run_shard(_ATTACHED.db, task.shard, task.nshards,
                          task.use_array)


def database_stamp(db: Database) -> Tuple[tuple, ...]:
    """A cheap point-in-time identity of a database's *content*: the
    per-table mutation counters.  An arena exported at stamp
    S serves exactly the data visible at S; any later insert/delete/
    update/consolidate changes the stamp and marks the arena stale."""
    return tuple(sorted(
        (name, table.mutation_count) for name, table in db.tables.items()))


@dataclass(eq=False)
class DatabaseImage:
    """A database's one exported image, recorded with the
    :func:`database_stamp` it holds.

    The arena keeps the exporter's descriptor, the manifest and the
    coordinator's one mapping (:meth:`ColumnArena.attach`).  Every shard
    backend over the database at ``stamp`` attaches to it, whatever its
    worker count; ``holders`` counts the open ones.  The record lives as
    long as the database: a finalizer on the database retires it, and
    so does a later export at a newer stamp, which replaces it.  A
    retired image's descriptor closes once no open backend holds it
    (a holder's pool may still spawn a worker that attaches by path);
    its pages then go with their last view.
    """

    arena: ColumnArena
    stamp: Tuple[tuple, ...]
    holders: int = 0
    retired: bool = False

    def release(self) -> None:  # astore: holds[_REGISTRY_LOCK]
        """Drop one holder; close a retired image nobody holds."""
        self.holders -= 1
        if self.retired:
            self.retire()

    def retire(self) -> None:  # astore: holds[_REGISTRY_LOCK]
        """Mark the image replaced (or its database gone); close its
        descriptor once no open backend holds it."""
        self.retired = True
        if self.holders <= 0:
            self.arena.close()


def _hold_image(db: Database, stamp) -> Tuple[DatabaseImage, bool]:  # astore: holds[_REGISTRY_LOCK]
    """*db*'s image at *stamp*, with one more holder, and whether it was
    exported just now: the recorded image when its stamp is *stamp*,
    else a fresh export that replaces (and retires) the recorded one.

    Zone maps built so far ride in a fresh image: workers attach the
    parent's summaries zero-copy instead of re-scanning columns
    (summaries built after the export are rebuilt worker-side)."""
    key = id(db)
    image = _DATABASE_IMAGES.get(key)
    if image is not None and image.stamp == stamp:
        image.holders += 1
        return image, False
    fresh = DatabaseImage(ColumnArena.export(
        db, zone_entries=fresh_zone_entries(db, query_cache_for(db))),
        stamp, holders=1)
    _DATABASE_IMAGES[key] = fresh
    if image is None:
        weakref.finalize(db, _retire_image, key)
    else:
        image.retire()
    return fresh, True


def database_image(db: Database) -> Optional[ColumnArena]:
    """The arena of *db*'s current image, if it has one (leak checks)."""
    with _REGISTRY_LOCK:
        image = _DATABASE_IMAGES.get(id(db))
        return None if image is None else image.arena


def _retire_image(key: int) -> None:
    """Finalizer: the database was garbage-collected, so its image goes
    (once the last backend attached to it closes)."""
    with _REGISTRY_LOCK:
        image = _DATABASE_IMAGES.pop(key, None)
        if image is not None:
            image.retire()


class ProcessShardBackend:
    """A persistent worker pool over its database's image.

    Created lazily by an engine on its first process-backed query and
    held for the engine's lifetime, so interpreter spawns amortize
    across queries.  The image belongs to the database
    (:class:`DatabaseImage`): the backend exports only when the
    database has none at its current stamp, and otherwise attaches its
    shard 0 over the coordinator's existing mapping (O(columns)) and
    points its workers at the same path.  Right after an export, every
    table still at its exported stamp adopts the image as its storage
    (:meth:`~repro.core.table.Table.adopt`): its buffers become views
    of the coordinator's attachment and its private arrays go; tables
    already viewing a reused image need no second adoption.  The image
    stays the snapshot at its stamp — a later write copies the buffers
    it touches before writing — and :meth:`is_stale` compares the
    database's mutation stamp so callers re-export after writes instead
    of serving stale shards.  ``close()`` terminates the pool and drops
    the backend's attachment; the image stays with the database.
    Engines expose ``close()`` as their own.  Use
    :func:`acquire_shard_backend` / :func:`release_shard_backend` to
    share one backend (one pool) across all engines over the same
    database and worker count.

    ``workers`` is the shard count, at least two (one shard runs
    inline, see :meth:`ShardBackendSlot.run`).  The coordinator runs
    shard 0 itself (leader participation), so the pool holds
    ``workers - 1`` processes.  Shard 0 reads the backend's own
    attachment of the image through its own unpickled plan copy,
    exactly as a pool worker does, so every shard of a run reads one
    point-in-time snapshot and the caller's plan object is never
    hydrated or mutated.
    """

    _plan_seq = itertools.count()

    def __init__(self, db: Database, workers: int):
        if int(workers) < 2:
            raise ValueError("a process shard backend needs two or more "
                             "shards; run one shard inline")
        self.workers = int(workers)
        self.stamp = database_stamp(db)
        self.refs = 0
        self._registry_key: Optional[tuple] = None
        # (seq, pickle) per live plan object: a cached BoundQuery keeps
        # its ``plan_seq`` for life, so after its first run tasks name
        # it by seq alone and the bytes serialized the first time are
        # only resent to a worker that misses.  Weak keys drop the memo
        # with the plan.  The memo lock keeps concurrent serving threads
        # from racing the lookup-then-serialize sequence, and guards the
        # task-traffic counters and the coordinator's shard state.
        self._plan_pickles: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary())
        self._memo_lock = threading.Lock()
        self._traffic: Dict[str, int] = dict.fromkeys(
            ("tasks", "task_bytes", "plan_ships", "plan_misses"), 0)
        with _REGISTRY_LOCK:
            image, exported = _hold_image(db, self.stamp)
            try:
                # the coordinator's side: an attachment exactly like a
                # worker's (its zone maps seeded into a fresh query
                # cache), so shard 0 faults in only the pages it reads,
                # and plan copies by plan_seq
                self._attached: Optional[AttachedDatabase] = (
                    _seed_zone_maps(image.arena.attach()))
            except BaseException:
                image.release()
                raise
            self._image: Optional[DatabaseImage] = image
        self.arena = image.arena
        if exported:
            # ... and the live database's storage: every table still at
            # its exported stamp swaps its private buffers for views of
            # the same mapping, so the host holds the data once
            for name, count in self.stamp:
                db.table(name).adopt(self._attached.db.table(name), count)
        self._plans: "OrderedDict[int, object]" = OrderedDict()
        # a futures executor rather than multiprocessing.Pool: when a
        # worker dies mid-task (OOM kill, SIGKILL, segfault) Pool.map
        # waits forever for a result that will never come, while the
        # executor surfaces BrokenProcessPool — which run() maps to the
        # typed ShardExecutionError the engine degrades on
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.workers - 1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_attach, initargs=(self.arena.manifest,))

    def is_stale(self, db: Database) -> bool:
        """Has *db* been mutated since this backend's image was exported?"""
        return database_stamp(db) != self.stamp

    def retain(self) -> "ProcessShardBackend":
        """Take one extra reference (e.g. to pin the backend for the
        duration of a run); pair with :func:`release_shard_backend`."""
        with _REGISTRY_LOCK:
            self.refs += 1
        return self

    def run(self, plan, nshards: Optional[int] = None,
            use_array: Optional[bool] = None) -> List[ShardOutcome]:
        """Run *plan* over ``nshards`` horizontal shards (default: one
        per worker); outcomes come back in shard order.  Thread-safe:
        concurrent callers multiplex over the one worker pool (the
        pool's task queue interleaves their shard tasks).

        Shards 1.. go to the pool first; shard 0 then runs in the
        calling thread while they do, and the pool's replies are
        collected last.  Only a plan's first run on this backend ships
        its bytes; later tasks name it by ``plan_seq``.  A worker that
        does not hold the plan answers :class:`PlanMiss`, and that
        shard is resubmitted once, with the bytes."""
        nshards = nshards or self.workers
        with self._memo_lock:
            pool = self._pool
            if pool is None:
                raise ExecutionError("process shard backend is closed")
            memo = self._plan_pickles.get(plan)
            first = memo is None
            if first:
                memo = (next(self._plan_seq),
                        pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL))
                self._plan_pickles[plan] = memo
        seq, plan_bytes = memo
        tasks = [ShardTask(seq, shard, nshards, use_array,
                           plan_bytes if first else None)
                 for shard in range(1, nshards)]
        try:
            futures = self._submit(pool, tasks)
            led = self._lead(seq, plan_bytes, nshards, use_array)
            pooled = [future.result() for future in futures]
            missed = [i for i, outcome in enumerate(pooled)
                      if isinstance(outcome, PlanMiss)]
            if missed:
                resent = self._submit(
                    pool, [replace(tasks[i], plan_bytes=plan_bytes)
                           for i in missed], misses=len(missed))
                for i, future in zip(missed, resent):
                    pooled[i] = future.result()
            return [led] + pooled
        except BrokenProcessPool as exc:
            # a worker died mid-query: self-evict from the registry so
            # the next acquire exports a fresh pool, then raise the
            # typed error the engine layer degrades on
            self._abandon()
            raise ShardExecutionError(
                f"shard worker pool died mid-query: {exc}") from exc
        except CancelledError as exc:
            # a concurrent close() cancelled queued shards: same
            # contract as the closed-pool check above
            raise ExecutionError("process shard backend is closed") from exc
        except RuntimeError as exc:
            if "shutdown" in str(exc):  # submit raced a concurrent close()
                raise ExecutionError(
                    "process shard backend is closed") from exc
            raise

    def _lead(self, seq: int, plan_bytes: bytes, nshards: int,
              use_array: Optional[bool]) -> ShardOutcome:
        """Run shard 0 in the calling thread, over the coordinator's
        attachment and its own copy of plan *seq*.

        The attachment's views hold its mapping, so a close() during the
        run cannot unmap pages under it.  The outcome crosses the same
        pickle boundary as a worker's reply, so no projection chunk or
        gathered value the caller merges is a read-only image view."""
        with self._memo_lock:
            if self._pool is None:
                raise ExecutionError("process shard backend is closed")
            plan = _lru_plan(self._plans, seq, plan_bytes)
            db = self._attached.db
        return pickle.loads(pickle.dumps(
            plan.run_shard(db, 0, nshards, use_array),
            protocol=pickle.HIGHEST_PROTOCOL))

    def _submit(self, pool: ProcessPoolExecutor, tasks: List[ShardTask],
                misses: int = 0) -> list:
        """Submit *tasks* and count their traffic (*misses*: the
        PlanMisses being resent); the futures come back in task order."""
        sizes = [len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
                 for task in tasks]
        with self._memo_lock:
            self._traffic["tasks"] += len(tasks)
            self._traffic["task_bytes"] += sum(sizes)
            self._traffic["plan_ships"] += sum(
                task.plan_bytes is not None for task in tasks)
            self._traffic["plan_misses"] += misses
        return [pool.submit(_worker_run, task) for task in tasks]

    def traffic(self) -> Dict[str, int]:
        """Task-traffic counters since the pool started: ``tasks``
        submitted, their pickled ``task_bytes``, ``plan_ships`` (tasks
        that carried plan bytes) and ``plan_misses`` (workers that did
        not hold a referenced plan).  Shards the coordinator runs itself
        are not tasks and are not counted."""
        with self._memo_lock:
            return dict(self._traffic)

    def _abandon(self) -> None:
        """Drop this (broken) backend from the shared registry; current
        holders still release their references normally."""
        with _REGISTRY_LOCK:
            key, self._registry_key = self._registry_key, None
            if key is not None and _SHARED_BACKENDS.get(key) is self:
                _SHARED_BACKENDS.pop(key, None)

    def close(self) -> None:
        """Terminate the workers and drop the coordinator's attachment;
        idempotent.  The image stays with its database.

        Pool workers are terminated, not drained: close() must not wait
        on stuck shards.  A shard the coordinator is running keeps
        reading: its views hold their mapping until it returns, as do
        the buffers a database adopted."""
        with self._memo_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # the executor has no terminate() of its own
            procs = list(getattr(pool, "_processes", {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                with contextlib.suppress(Exception):
                    proc.terminate()
            pool.shutdown(wait=True)
        with self._memo_lock:
            self._plans.clear()
            # drop the attachment (and the zone maps seeded into its
            # query cache): its mapping goes with its last view
            self._attached = None
        with _REGISTRY_LOCK:
            image, self._image = self._image, None
            if image is not None:
                image.release()

    def __enter__(self) -> "ProcessShardBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: One shared backend per (database identity, worker count): a harness
#: sweep over ten engines starts one pool, not ten.
_SHARED_BACKENDS: Dict[tuple, ProcessShardBackend] = {}

#: One image per database identity, shared by its backends of every
#: worker count (see :class:`DatabaseImage`).
_DATABASE_IMAGES: Dict[int, DatabaseImage] = {}

#: Guards both registries, every backend's refcount and image hold, and
#: every image's holders.  Reentrant because a construction inside
#: ``acquire_shard_backend`` can trigger GC, which can run
#: ``_evict_backend`` / ``_retire_image`` finalizers on this same thread.
_REGISTRY_LOCK = threading.RLock()

#: Lock contract, machine-checked by ``astore lint`` (lock-discipline).
#: ``refs`` rides under the registry lock — not a per-backend lock —
#: because eviction decisions read the count and the registry together.
GUARDED_BY = {
    "_SHARED_BACKENDS": "_REGISTRY_LOCK",
    "_DATABASE_IMAGES": "_REGISTRY_LOCK",
    "DatabaseImage.holders": "_REGISTRY_LOCK",
    "ProcessShardBackend._image": "_REGISTRY_LOCK",
    "ProcessShardBackend.refs": "_REGISTRY_LOCK",
    "ProcessShardBackend._traffic": "self._memo_lock",
    "ProcessShardBackend._plans": "self._memo_lock",
    "ProcessShardBackend._pool": "self._memo_lock",
    "ProcessShardBackend._attached": "self._memo_lock",
    "ShardBackendSlot._backend": "self._lock",
}


class ShardBackendSlot:
    """One engine's hold on the shared shard backend of its database:
    the one checkout path of every engine family.

    :meth:`run` runs a plan's shards; a single shard runs inline over
    the database with no export and no pool (a
    :class:`ProcessShardBackend` needs two).  :meth:`checkout` pins a
    fresh backend for one run, and :meth:`close` drops the engine's
    reference.
    """

    def __init__(self, db: Database, workers: int):
        self.db = db
        self.workers = max(1, int(workers))
        # guards the slot: concurrent queries on one engine must not
        # double-release a stale backend (each run additionally pins
        # the backend it checked out, see checkout)
        self._lock = threading.Lock()
        self._backend: Optional[ProcessShardBackend] = None

    @property
    def backend(self) -> Optional[ProcessShardBackend]:
        """The backend the slot holds now, if any."""
        with self._lock:
            return self._backend

    def checkout(self) -> ProcessShardBackend:
        """A fresh (non-stale) shard backend, pinned for one run.

        The slot lock makes the stale-check/release/re-acquire sequence
        atomic — two concurrent queries on one engine can never
        double-release the shared slot — and the extra
        :meth:`~ProcessShardBackend.retain` reference keeps the
        checked-out backend's pool and image alive for the duration of
        this run even if a concurrent query observes a mutation and
        swaps the slot onto a fresh export mid-flight.  Callers pair it
        with :func:`release_shard_backend`.
        """
        with self._lock:
            backend = self._backend
            if backend is not None and backend.is_stale(self.db):
                # the image holds the data as of its export; a mutation
                # since means the shards would serve stale rows
                release_shard_backend(backend)
                backend = self._backend = None
            if backend is None:
                backend = self._backend = acquire_shard_backend(
                    self.db, self.workers)
            backend.retain()
            return backend

    def run(self, plan, use_array: Optional[bool],
            stats) -> List[ShardOutcome]:
        """The outcomes of *plan* over the slot's shards, in shard order.

        If the pool dies under the run, the broken backend leaves the
        slot and the run degrades to serial shards over the database —
        same plan, same shard boundaries, same answer, no hang — counted
        in ``stats.shard_fallbacks``."""
        nshards = self.workers
        if nshards == 1:
            return [plan.run_shard(self.db, 0, 1, use_array)]
        backend = self.checkout()
        try:
            return backend.run(plan, nshards=nshards, use_array=use_array)
        except ShardExecutionError:
            with self._lock:
                if self._backend is backend:
                    release_shard_backend(backend)
                    self._backend = None
            stats.shard_fallbacks += 1
            return [plan.run_shard(self.db, shard, nshards, use_array)
                    for shard in range(nshards)]
        finally:
            release_shard_backend(backend)

    def close(self) -> None:
        """Drop the engine's reference; the last holder of the shared
        backend closes its pool (the image stays with the database)."""
        with self._lock:
            backend, self._backend = self._backend, None
        if backend is not None:
            release_shard_backend(backend)


def acquire_shard_backend(db: Database, workers: int) -> ProcessShardBackend:
    """A refcounted, staleness-checked shard backend for *db*.

    Engines over the same database and worker count share one pool, and
    backends of every worker count share the database's image; every
    acquire must be paired with a :func:`release_shard_backend` (engines
    do this in ``close()``).  A backend whose image predates a database
    mutation is evicted here — current holders drain it via their own
    ``is_stale`` check — and a fresh backend over a fresh export takes
    its place.

    The registry lock is held across the whole
    revalidate/evict/re-export/refcount sequence.  Unlocked, the
    check-then-act had two races: a mutation between a caller's
    staleness check and its ``refs += 1`` could hand that caller a
    backend another thread had just evicted *and closed* (refs
    transiently 0), and two concurrent releases could drive the count
    negative and close a pool mid-use.
    """
    key = (id(db), max(1, int(workers)))
    with _REGISTRY_LOCK:
        backend = _SHARED_BACKENDS.get(key)
        if backend is not None and backend.is_stale(db):
            _SHARED_BACKENDS.pop(key, None)
            if backend.refs <= 0:
                backend.close()
            backend = None
        if backend is None:
            backend = ProcessShardBackend(db, workers)
            backend._registry_key = key
            _SHARED_BACKENDS[key] = backend
            weakref.finalize(db, _evict_backend, key)
        backend.refs += 1
        return backend


def release_shard_backend(backend: ProcessShardBackend) -> None:
    """Drop one reference; the last holder closes the pool.

    Idempotence guard: releasing an already fully-released backend is a
    no-op rather than driving the count negative (which, unlocked, was
    exactly how a mutate-while-acquire race double-closed live pools).
    """
    with _REGISTRY_LOCK:
        if backend.refs <= 0:
            return
        backend.refs -= 1
        if backend.refs > 0:
            return
        key = backend._registry_key
        if key is not None and _SHARED_BACKENDS.get(key) is backend:
            _SHARED_BACKENDS.pop(key, None)
    # close outside the lock: terminating a pool can take a while and
    # nothing else can reach this backend any more (refs == 0, evicted)
    backend.close()


def _evict_backend(key: tuple) -> None:
    """Finalizer: the database was garbage-collected, so nobody can use
    (or properly release) the backend any more — close it outright."""
    with _REGISTRY_LOCK:
        backend = _SHARED_BACKENDS.pop(key, None)
    if backend is not None:
        backend.close()
