"""Vectorized physical operators and the morsel-driven dispatcher.

This module is the shared physical layer of every engine in the repo:
the A-Store executor (all five Table 6 variants), the three comparison
baselines of Section 6, and the benchmark harness all run their queries
as small DAGs of the operators defined here.

The execution unit is the :class:`Morsel`: a horizontal slice of the
root (fact) table, carried as a selection of global row ids plus a
positional provider aligned with them.  Operators consume a morsel and
produce a (usually smaller) morsel; stateful operators (aggregation,
value gathering, projection) accumulate per-task state and surface it
through :meth:`Operator.finish`.

The :class:`MorselDispatcher` replaces the executor's bespoke thread
loop: it splits the fact table into horizontal partitions (and
optionally fixed-size morsels inside each partition), runs a fresh copy
of the operator pipeline over every morsel on a pluggable backend
(``serial``, ``thread``, or ``process``), and returns per-morsel
outputs, finish values, and per-operator timings.  The ``process``
entry is a *shard* backend: queries compile to portable bound plans
that worker processes rebuild per shard over an exported database
image (:mod:`repro.engine.sharding`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Bitmap
from ..core.column import take_at
from ..errors import ExecutionError
from ..plan.binder import LogicalPlan
from ..plan.expressions import BoundColumn, BoundExpression
from .aggregate import (
    AggregationState,
    array_aggregate,
    hash_aggregate,
)
from .expression import evaluate_measure, evaluate_predicate
from .grouping import GroupAxis, combine_codes, single_axis
from .scratch import local_pool
from .slice import ArraySlice


class PredicateFilter:
    """A dimension predicate vector (Section 4.2).

    Stores both the packed bit vector (whose size drives the optimizer's
    fit-in-cache decision and the paper's LLC argument) and the unpacked
    boolean array used for the actual probe — a probe is then a single
    positional gather, ``mask[air_positions]``.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    __slots__ = ("packed", "_mask")

    def __init__(self, mask: np.ndarray):
        self._mask = np.ascontiguousarray(mask, dtype=bool)
        self.packed = Bitmap.from_bool_array(self._mask)

    def probe(self, positions: np.ndarray) -> np.ndarray:
        """Which of the given dimension positions pass the predicate:
        one :func:`~repro.core.column.take_at` gather, which casts an
        int32 AIR band to ``intp`` a slice at a time and never hands
        *positions* (often a read-only arena view) to ``np.take``."""
        return take_at(self._mask, positions)

    def __getstate__(self):
        # Only the packed vector crosses process boundaries (it is what the
        # paper argues must stay cache-resident); workers unpack on attach.
        return self.packed

    def __setstate__(self, packed) -> None:
        self.packed = packed
        self._mask = packed.to_bool_array()

    @property
    def mask(self) -> np.ndarray:
        """The unpacked pass mask over dimension rows (what the
        code-set summaries intersect with for block verdicts)."""
        return self._mask

    @property
    def density(self) -> float:
        """Fraction of dimension rows passing (probe selectivity)."""
        return float(self._mask.mean()) if len(self._mask) else 0.0

    @property
    def nbytes(self) -> int:
        """Packed size — what must stay cache-resident."""
        return self.packed.nbytes


# -- morsels -----------------------------------------------------------------


class Morsel:
    """One horizontal slice of the root table flowing through a pipeline.

    ``positions`` are *global* row ids of the root table; ``provider``
    resolves ``(table, column)`` aligned with those rows (positional AIR
    gathers for A-Store, hash-join probes for the baselines).
    ``positions=None`` is the *identity* morsel — every physical row of
    the root table, in order — which lets the provider serve column
    slices as zero-copy views and the first refinement skip the
    position gather (the common whole-table scan).
    ``codes`` carries the composite Measure Index once
    :class:`GroupCombine` has run, and ``pending`` holds a deferred
    keep-mask for pipelines that evaluate every predicate before
    shrinking (the row-scan variant).  ``prefiltered=True`` marks a
    morsel whose rows are *known* to pass every filter-like step (zone
    maps proved each block fully inside every predicate interval), so
    filter operators pass it through untouched.

    ``visible`` is the visibility mask over the morsel's rows when some
    of them are hidden (deleted, or invisible at the plan's MVCC
    snapshot), ``None`` when all are visible.  Hidden rows stay in the
    band so the first predicate still reads zero-copy views; the first
    :meth:`refine` folds the mask in, and :class:`Visible` settles any
    morsel no filter refined.
    """

    __slots__ = ("positions", "provider", "codes", "pending", "prefiltered",
                 "visible")

    def __init__(self, positions: Optional[np.ndarray], provider,
                 codes: Optional[np.ndarray] = None,
                 pending: Optional[np.ndarray] = None,
                 prefiltered: bool = False,
                 visible: Optional[np.ndarray] = None):
        self.positions = positions
        self.provider = provider
        self.codes = codes
        self.pending = pending
        self.prefiltered = prefiltered
        self.visible = visible

    def __len__(self) -> int:
        if self.positions is None:
            return self.provider.length
        return len(self.positions)

    def refine(self, keep: np.ndarray) -> "Morsel":
        """Shrink by a boolean keep-mask aligned with the current rows
        (hidden rows are dropped too).

        *keep* may be a scratch buffer: it is consumed here (the
        surviving index and position arrays are owned allocations)."""
        keep = np.asarray(keep, dtype=bool)
        if self.visible is not None:
            keep = keep & self.visible
        idx = np.flatnonzero(keep)
        positions = idx if self.positions is None else self.positions[idx]
        return Morsel(
            positions,
            self.provider.rebase(idx, positions),
            codes=None if self.codes is None else self.codes[idx],
        )

    def settle(self) -> "Morsel":
        """This morsel with its hidden rows dropped."""
        return self if self.visible is None else self.refine(self.visible)


class OverlayProvider:
    """A provider with fully materialized (decoded) column overlays.

    Used by the row-wise scan variant, which fetches every referenced
    column for the whole morsel before any predicate runs; predicates and
    measures then read the materialized arrays, while positional probes
    still go through the underlying provider.
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, base, overlay: Dict[BoundColumn, np.ndarray]):
        self._base = base
        self._overlay = overlay

    @property
    def length(self) -> int:
        return self._base.length

    def positions_for(self, table: str):
        return self._base.positions_for(table)

    def fetch(self, table: str, name: str):
        key = BoundColumn(table, name)
        if key in self._overlay:
            return ArraySlice(self._overlay[key])
        return self._base.fetch(table, name)

    def rebase(self, idx: np.ndarray,
               gathered: Optional[np.ndarray] = None) -> "OverlayProvider":
        return OverlayProvider(
            self._base.rebase(idx, gathered),
            {key: values[idx] for key, values in self._overlay.items()},
        )


# -- micro-adaptive filter ordering ------------------------------------------


class ReorderState:
    """Observed pass-rates for a filter chain (Vectorwise-style
    micro-adaptivity).

    The plan orders filter-like steps by *estimated* selectivity; this
    state re-orders them by the pass-rates actually observed on earlier
    morsels, with periodic re-exploration (every ``explore_every``-th
    trip runs the static order so a step whose selectivity drifted gets
    re-measured).  Reordering a conjunction never changes its result —
    only which step shrinks the selection first — so adaptivity is a
    pure performance knob.  One state is shared across all pipeline
    instances of a query (and across queries on a cached plan); sizing
    happens on first use, and the lock never crosses a pickle.
    """

    def __init__(self, explore_every: int = 16):
        self.explore_every = max(2, int(explore_every))
        self.passes: List[float] = []
        self.rows: List[float] = []
        self.trips = 0
        self.reorders = 0
        self._last: Optional[Tuple[int, ...]] = None
        self._lock = threading.Lock()

    def _ensure(self, n: int) -> None:
        while len(self.rows) < n:
            self.passes.append(0.0)
            self.rows.append(0.0)

    def record(self, step: int, kept: int, total: int) -> None:
        """Fold one step's observed (kept, total) into its pass-rate."""
        with self._lock:
            self._ensure(step + 1)
            self.passes[step] += kept
            self.rows[step] += total

    def order(self, static: Sequence[int]) -> List[int]:
        """The step order for the next pipeline instance.

        Unmeasured steps sort first (optimistically selective, so they
        get measured); measured steps sort by observed pass-rate; every
        ``explore_every``-th trip re-runs the static order.
        """
        with self._lock:
            self.trips += 1
            self._ensure(max(static, default=-1) + 1)
            if self.trips % self.explore_every == 1 or all(
                    self.rows[i] == 0 for i in static):
                chosen = list(static)
            else:
                def rate(i: int) -> float:
                    return (self.passes[i] / self.rows[i]
                            if self.rows[i] else -1.0)
                chosen = sorted(static, key=rate)
            key = tuple(chosen)
            if self._last is not None and key != self._last:
                self.reorders += 1
            self._last = key
            return chosen

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


# -- operator protocol -------------------------------------------------------


class Operator:
    """A vectorized physical operator: morsel in, morsel out.

    ``label`` identifies the operator instance in per-operator timing
    breakdowns (:class:`MorselResult.timings`); ``finish`` surfaces the
    per-task state of stateful operators after all morsels were seen.
    """

    name = "op"

    def __init__(self, label: Optional[str] = None):
        self.label = label or self.name

    def process(self, morsel: Morsel) -> Morsel:
        return morsel

    def finish(self):
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"


class FilterLike(Operator):
    """Base for operators that compute a keep-mask over a morsel.

    ``defer=True`` accumulates the mask on the morsel instead of
    shrinking it (full-tuple processing: every predicate sees every
    row); :class:`ApplyMask` performs the deferred refinement.

    ``observer`` (set post-construction by chains that adapt) is a
    ``(ReorderState, step_id)`` pair receiving the observed pass count
    of every evaluated mask; a ``prefiltered`` morsel — zone maps proved
    all its rows pass — flows through untouched.
    """

    selectivity = 1.0
    observer: Optional[Tuple[ReorderState, int]] = None

    def __init__(self, label: Optional[str] = None,
                 selectivity: float = 1.0, defer: bool = False):
        super().__init__(label)
        self.selectivity = selectivity
        self.defer = defer
        self.observer = None

    def mask(self, morsel: Morsel) -> np.ndarray:
        raise NotImplementedError

    def process(self, morsel: Morsel) -> Morsel:
        if morsel.prefiltered or not len(morsel):
            return morsel
        keep = self.mask(morsel)
        if self.defer:
            # ``keep`` may be a scratch buffer (or alias stored data):
            # own a copy on first accumulation, then fold in place
            if morsel.pending is None:
                morsel.pending = np.array(keep, dtype=bool)
            else:
                np.logical_and(morsel.pending, keep, out=morsel.pending)
            return morsel
        out = morsel.refine(keep)
        if self.observer is not None:
            # the refined length IS the pass count — rate observation
            # costs nothing on the non-deferred path
            state, step = self.observer
            state.record(step, len(out), len(morsel))
        return out


class Filter(FilterLike):
    """Evaluate a bound predicate expression against the morsel rows."""

    name = "filter"

    def __init__(self, expr: BoundExpression, **kwargs):
        kwargs.setdefault("label", f"filter[{_columns_of(expr)}]")
        super().__init__(**kwargs)
        self.expr = expr

    def mask(self, morsel: Morsel) -> np.ndarray:
        return evaluate_predicate(self.expr, morsel.provider)


def _columns_of(expr: BoundExpression) -> str:
    from ..plan.expressions import bound_columns

    return ",".join(dict.fromkeys(c.name for c in bound_columns(expr)))


class AIRProbe(FilterLike):
    """Probe a first-level dimension for each morsel row.

    Three modes, covering both engines:

    * ``"vector"`` — gather a precomputed :class:`PredicateFilter`
      (A-Store's Section 4.2 predicate vectors, or a baseline's
      semi-join reduction mask) at the dimension positions;
    * ``"predicate"`` — evaluate the dimension predicate through the
      provider (direct AIR probing, when no filter was built);
    * ``"exists"`` — keep rows whose probe found a match (hash-join
      existence check used by the baselines).
    """

    name = "air-probe"

    def __init__(self, dim: str, mode: str, payload=None, **kwargs):
        if mode not in ("vector", "predicate", "exists"):
            raise ExecutionError(f"unknown probe mode {mode!r}")
        kwargs.setdefault("label", f"probe[{dim}:{mode}]")
        super().__init__(**kwargs)
        self.dim = dim
        self.mode = mode
        self.payload = payload

    def mask(self, morsel: Morsel) -> np.ndarray:
        if self.mode == "vector":
            return self.payload.probe(morsel.provider.positions_for(self.dim))
        if self.mode == "predicate":
            return evaluate_predicate(self.payload, morsel.provider)
        positions = morsel.provider.positions_for(self.dim)
        return np.greater_equal(positions, 0,
                                out=local_pool().bool_mask(len(positions)))


class MaskFilter(FilterLike):
    """Keep rows whose *global* position is set in a full-table mask
    (MVCC live masks, precomputed visibility)."""

    name = "mask-filter"

    def __init__(self, mask: np.ndarray, **kwargs):
        super().__init__(**kwargs)
        self._mask = mask

    def mask(self, morsel: Morsel) -> np.ndarray:
        if morsel.positions is None:
            return self._mask  # identity morsel: already aligned
        # fancy indexing: np.take would copy read-only positions first
        return self._mask[morsel.positions]


class Visible(Operator):
    """Drop hidden rows no filter has refined away yet (a morsel with no
    filter step, or ``prefiltered`` by zone maps); a no-op on morsels
    whose rows are all visible.  Ends every A-Store filter chain."""

    name = "visible"

    def process(self, morsel: Morsel) -> Morsel:
        return morsel.settle()


class ApplyMask(Operator):
    """Apply the deferred keep-mask accumulated by ``defer`` filters
    (and the morsel's visibility mask with it)."""

    name = "apply-mask"

    def process(self, morsel: Morsel) -> Morsel:
        if morsel.pending is None:
            return morsel.settle()
        return morsel.refine(morsel.pending)


class IntersectScan(Operator):
    """Operator-at-a-time scan with full materialization (MonetDB-like).

    Every contained filter is evaluated over the *entire* morsel — no
    per-row selection-vector short-circuit, which is the BAT-algebra
    cost profile the paper measures in Tables 3–5 — and the per-filter
    candidate sets are intersected positionally over the morsel's row
    domain with boolean masks.  (An earlier version materialized sorted
    OID lists and combined them with ``np.intersect1d``, paying a sort
    per filter per morsel; candidate sets over one morsel share its
    position domain, so a linear mask AND is the same intersection.)

    With an ``adapt`` :class:`ReorderState` the scan becomes
    micro-adaptive: steps run in observed pass-rate order (periodically
    re-exploring the plan order), and once the running intersection is
    empty the remaining candidate lists — which could only be
    intersected away — are skipped.  Conjunction order and early-out on
    an empty set never change the surviving rows, only the work done.
    """

    name = "intersect-scan"

    def __init__(self, steps: Sequence[FilterLike],
                 label: Optional[str] = None,
                 adapt: Optional[ReorderState] = None):
        super().__init__(label)
        self.steps = list(steps)
        self.adapt = adapt

    def process(self, morsel: Morsel) -> Morsel:
        if morsel.prefiltered or not len(morsel):
            return morsel
        order: Sequence[int] = range(len(self.steps))
        if self.adapt is not None:
            order = self.adapt.order(list(order))
        keep: Optional[np.ndarray] = None
        for i in order:
            step = self.steps[i]
            mask = step.mask(morsel)  # full-morsel evaluation
            if self.adapt is not None:
                self.adapt.record(i, int(np.count_nonzero(mask)),
                                  len(morsel))
            keep = (np.array(mask, dtype=bool) if keep is None
                    else np.logical_and(keep, mask, out=keep))
            if self.adapt is not None and not keep.any():
                break  # empty intersection: remaining lists are moot
        if keep is None:
            return morsel
        return morsel.refine(keep)


class MaterializeColumns(Operator):
    """Fetch and decode every referenced column before any predicate.

    This reproduces the cost profile of full-tuple row-wise processing
    (the ``AIRScan_R*`` variants): each listed column — including
    dimension attributes reached through AIR — is materialized for every
    morsel row, and downstream operators read the overlays.
    """

    name = "materialize"

    def __init__(self, columns: Sequence[BoundColumn],
                 label: Optional[str] = None):
        super().__init__(label)
        self.columns = list(columns)

    def process(self, morsel: Morsel) -> Morsel:
        overlay = {
            column: morsel.provider.fetch(column.table, column.name).decode()
            for column in self.columns
        }
        morsel.provider = OverlayProvider(morsel.provider, overlay)
        return morsel


class GroupCombine(Operator):
    """Compute the composite Measure Index for the surviving rows."""

    name = "group-combine"

    def __init__(self, axes: Sequence[GroupAxis],
                 label: Optional[str] = None):
        super().__init__(label)
        self.axes = list(axes)

    def process(self, morsel: Morsel) -> Morsel:
        if self.axes:
            codes = [axis.fact_codes(morsel.provider) for axis in self.axes]
            morsel.codes = combine_codes(codes, [a.card for a in self.axes])
        else:
            morsel.codes = np.zeros(len(morsel), dtype=np.int64)
        return morsel


class Aggregate(Operator):
    """Measure-column aggregation over combined group codes.

    ``use_array=True`` scatters into the dense aggregation array of
    Section 4.3; otherwise the sort-based hash-aggregation stand-in is
    used.  Per-task partial states merge element-wise (Section 5).
    """

    def __init__(self, specs, ngroups: int, use_array: bool,
                 label: Optional[str] = None):
        self.name = f"aggregate[{'array' if use_array else 'hash'}]"
        super().__init__(label)
        self.specs = specs
        self.ngroups = ngroups
        self.use_array = use_array
        self.state: Optional[AggregationState] = None

    def process(self, morsel: Morsel) -> Morsel:
        if morsel.codes is None:
            raise ExecutionError("Aggregate needs GroupCombine upstream")
        measures = {
            spec.name: evaluate_measure(spec.expr, morsel.provider)
            for spec in self.specs if spec.expr is not None
        }
        if self.use_array:
            state = array_aggregate(self.specs, measures, morsel.codes,
                                    self.ngroups)
        else:
            state = hash_aggregate(self.specs, measures, morsel.codes)
        self.state = state if self.state is None else self.state.merge(state)
        return morsel

    def finish(self) -> Optional[AggregationState]:
        return self.state


@dataclass
class GatherState:
    """Accumulated decoded group values and measures (value grouping)."""

    group_values: List[List[np.ndarray]] = field(default_factory=list)
    measure_values: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    selected: int = 0

    def merge(self, other: "GatherState") -> "GatherState":
        if not self.group_values:
            self.group_values = [[] for _ in other.group_values]
        for mine, theirs in zip(self.group_values, other.group_values):
            mine.extend(theirs)
        for name, chunks in other.measure_values.items():
            self.measure_values.setdefault(name, []).extend(chunks)
        self.selected += other.selected
        return self


class ValueGather(Operator):
    """Gather decoded group-key values and measures for surviving rows.

    Engines that group by observed values (the row-scan variant and all
    baselines, which "perform hash based grouping and aggregation")
    accumulate here and build their axes with :func:`value_grouping`
    after the pipeline drains.
    """

    name = "gather"

    def __init__(self, logical: LogicalPlan, label: Optional[str] = None):
        super().__init__(label)
        self.logical = logical
        self.state = GatherState(
            group_values=[[] for _ in logical.group_keys])

    def process(self, morsel: Morsel) -> Morsel:
        if not len(morsel):
            return morsel
        provider = morsel.provider
        for i, key in enumerate(self.logical.group_keys):
            self.state.group_values[i].append(
                provider.fetch(key.column.table, key.column.name).decode())
        for spec in self.logical.aggregates:
            if spec.expr is None:
                continue
            self.state.measure_values.setdefault(spec.name, []).append(
                evaluate_measure(spec.expr, provider))
        self.state.selected += len(morsel)
        return morsel

    def finish(self) -> GatherState:
        return self.state


def value_grouping(logical: LogicalPlan, state: GatherState):
    """Axes + aggregation state from gathered values (hash-agg model)."""
    axes: List[GroupAxis] = []
    codes: List[np.ndarray] = []
    for i, key in enumerate(logical.group_keys):
        chunks = state.group_values[i] if state.group_values else []
        values = (np.concatenate(chunks) if chunks
                  else np.empty(0, dtype=object))
        uniq, inverse = np.unique(values, return_inverse=True)
        axes.append(single_axis(key, len(uniq), uniq))
        codes.append(inverse.astype(np.int64))
    measures = {}
    for spec in logical.aggregates:
        if spec.expr is None:
            continue
        chunks = state.measure_values.get(spec.name, [])
        measures[spec.name] = (np.concatenate(chunks) if chunks
                               else np.empty(0, dtype=np.float64))
    if axes:
        composite = combine_codes(codes, [a.card for a in axes])
        agg = hash_aggregate(logical.aggregates, measures, composite)
    else:
        composite = np.zeros(state.selected, dtype=np.int64)
        agg = array_aggregate(logical.aggregates, measures, composite, 1)
    return axes, agg


class Project(Operator):
    """Collect decoded output columns for pure SPJ (projection) queries."""

    name = "project"

    def __init__(self, projection_columns, label: Optional[str] = None):
        super().__init__(label)
        self.projection_columns = list(projection_columns)
        self._chunks: List[Dict[str, np.ndarray]] = []

    def process(self, morsel: Morsel) -> Morsel:
        self._chunks.append({
            key.name: morsel.provider.fetch(
                key.column.table, key.column.name).decode()
            for key in self.projection_columns
        })
        return morsel

    def finish(self) -> Dict[str, np.ndarray]:
        if len(self._chunks) == 1:
            return self._chunks[0]
        out: Dict[str, np.ndarray] = {}
        for key in self.projection_columns:
            chunks = [c[key.name] for c in self._chunks]
            out[key.name] = (np.concatenate(chunks) if chunks
                             else np.empty(0, dtype=object))
        return out


# -- dispatcher --------------------------------------------------------------


@dataclass
class MorselResult:
    """Outcome of one morsel's trip through a pipeline."""

    morsel: Morsel
    finishes: Dict[str, object]
    timings: Dict[str, float]
    seconds: float = 0.0


PipelineFactory = Callable[[], Sequence[Operator]]


class ExecutionBackend:
    """Descriptor of one :data:`BACKENDS` entry.

    *Inline* backends run live task closures in this process
    (:meth:`run_tasks`).  *Shard* backends (``inline = False``) instead
    execute a portable bound plan over horizontal fact-table shards in
    worker processes — the engine layer routes those through
    :mod:`repro.engine.sharding` rather than through the dispatcher, since
    a closure cannot cross a process boundary.
    """

    name = "backend"
    inline = True

    def run_tasks(self, tasks: Sequence[Callable]) -> list:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Run every morsel task in order on the calling thread."""

    name = "serial"

    def run_tasks(self, tasks):
        return [task() for task in tasks]


class ThreadBackend(ExecutionBackend):
    """One thread per morsel task (bounded), sharing this process."""

    name = "thread"

    def run_tasks(self, tasks):
        import os
        from concurrent.futures import ThreadPoolExecutor

        # One thread per morsel up to a sane cap — with small morsel_rows a
        # large table can yield thousands of morsels, and unbounded thread
        # creation fails on constrained hosts; excess morsels just queue.
        workers = min(len(tasks), (os.cpu_count() or 8) + 4)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task) for task in tasks]
            return [f.result() for f in futures]


class ProcessBackend(ExecutionBackend):
    """Shard marker: plans are rebuilt per shard in worker processes.

    The actual machinery — portable bound plans, the exported database
    image, and the spawn worker pool — lives in
    :mod:`repro.engine.sharding`; this entry only claims the name so every
    layer above can select it uniformly.
    """

    name = "process"
    inline = False

    def run_tasks(self, tasks):
        raise ExecutionError(
            "the process backend executes portable bound plans, not task "
            "closures; route through repro.engine.sharding")


#: Pluggable execution backends, keyed by the name every layer above uses
#: (`EngineOptions.parallel_backend`, `--backend`).
BACKENDS: Dict[str, ExecutionBackend] = {
    backend.name: backend
    for backend in (SerialBackend(), ThreadBackend(), ProcessBackend())
}


class MorselDispatcher:
    """Runs an operator pipeline over a set of morsels.

    Every morsel gets a *fresh* pipeline instance from the factory, so
    stateful operators accumulate per-task state that the caller merges
    (aggregation states merge element-wise, gather states concatenate).
    With the ``thread`` backend all morsels run concurrently, one thread
    each — the morsel count is the degree of parallelism, exactly like
    the paper's horizontal fact-table partitioning (Section 5).
    """

    def __init__(self, backend: str = "serial"):
        if backend not in BACKENDS:
            raise ExecutionError(
                f"unknown dispatch backend {backend!r}; "
                f"choose from {sorted(BACKENDS)}")
        self.backend = backend

    @staticmethod
    def partition(positions: np.ndarray, parts: int) -> List[np.ndarray]:
        """Split row ids into at most *parts* horizontal partitions."""
        parts = max(1, parts)
        if parts == 1 or len(positions) < parts:
            return [positions]
        return [chunk for chunk in np.array_split(positions, parts)
                if len(chunk)]

    @staticmethod
    def chunk(positions: np.ndarray, morsel_rows: int) -> List[np.ndarray]:
        """Split row ids into fixed-size morsels (0 = one morsel)."""
        if morsel_rows <= 0 or len(positions) <= morsel_rows:
            return [positions]
        return [positions[start: start + morsel_rows]
                for start in range(0, len(positions), morsel_rows)]

    def run(self, morsels: Sequence[Morsel],
            factory: PipelineFactory) -> List[MorselResult]:
        """Run a fresh pipeline over each morsel; never reorders output.

        Live closures cannot cross a process boundary, so a non-inline
        (shard) backend degrades to the serial runner here; the engine
        layer routes shard backends through portable plans instead.
        """

        def make_task(morsel: Morsel):
            def task() -> MorselResult:
                ops = list(factory())
                timings: Dict[str, float] = {}
                t_task = time.perf_counter()
                m = morsel
                for op in ops:
                    t0 = time.perf_counter()
                    m = op.process(m)
                    elapsed = time.perf_counter() - t0
                    timings[op.label] = timings.get(op.label, 0.0) + elapsed
                finishes = {}
                for op in ops:
                    value = op.finish()
                    if value is not None:
                        finishes[op.label] = value
                return MorselResult(m, finishes, timings,
                                    time.perf_counter() - t_task)
            return task

        tasks = [make_task(m) for m in morsels]
        backend = BACKENDS[self.backend]
        if len(tasks) <= 1 or not backend.inline:
            return BACKENDS["serial"].run_tasks(tasks)
        return backend.run_tasks(tasks)


def merge_timings(stats, results: Sequence[MorselResult]) -> None:
    """Fold per-operator timings into ``stats.operator_seconds``."""
    for result in results:
        for label, seconds in result.timings.items():
            stats.operator_seconds[label] = (
                stats.operator_seconds.get(label, 0.0) + seconds)
