"""Physical planning: predicate ordering and the paper's two cache-aware
decisions.

The optimizer makes exactly the choices Section 4 describes:

1. **Predicate order** — the most selective predicates are evaluated first
   so the selection vector shrinks as early as possible (Section 4.1).
   Selectivities are estimated by evaluating each conjunct on a small
   evenly-spaced row sample.
2. **Predicate filter vs. direct probe** (Section 4.2) — a dimension gets
   a bit-vector predicate filter only if that filter fits in the last
   level cache; otherwise the dimension is probed through AIR during the
   scan (the paper's ``order`` table example).
3. **Array vs. hash aggregation** (Section 4.3) — the multidimensional
   aggregation array is used only when its estimated size fits the LLC
   budget; sparse/huge group spaces fall back to hash aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core import Database
from ..core.column import DictColumn
from ..errors import PlanError
from .binder import GroupKey, LogicalPlan
from .expressions import (
    BoundAnd,
    BoundExpression,
    predicate_code_set,
    predicate_interval,
)


@dataclass(frozen=True)
class CacheModel:
    """A last-level-cache budget used for the fit decisions.

    The default models a modern server LLC (the paper's Xeon E5-2670 has
    20 MB; its argument sizes predicate filters against a 45 MB LLC).
    """

    llc_bytes: int = 32 * 1024 * 1024

    def filter_fits(self, dim_rows: int) -> bool:
        """Does a packed predicate filter over *dim_rows* fit the LLC?"""
        return (dim_rows + 7) // 8 <= self.llc_bytes

    def aggregation_array_fits(self, ngroups: int, cell_bytes: int = 8) -> bool:
        """Does a *ngroups*-cell aggregation array fit the LLC?"""
        return ngroups * cell_bytes <= self.llc_bytes


@dataclass(frozen=True)
class DimDecision:
    """Per-dimension filtering strategy chosen by the optimizer."""

    first_dim: str
    predicate: BoundExpression
    use_filter: bool           # True: predicate vector; False: direct probe
    estimated_selectivity: float


@dataclass(frozen=True)
class OpSpec:
    """One node of the physical operator DAG.

    Purely declarative — the engine layer binds each spec to a concrete
    :mod:`repro.engine.operators` operator (and variants may rewrite the
    spec list first).  ``op`` names the operator kind, ``detail`` is the
    human-readable argument shown by ``explain()``, ``payload`` carries
    the bound object the engine needs (an expression, a
    :class:`DimDecision`, …), and ``selectivity`` is the optimizer's
    estimate used for ordering filter-like nodes.

    ``prune`` annotates nodes the data-skipping layer can evaluate
    against block summaries alone: ``("interval", ColumnInterval)`` for
    fact predicates with a literal interval, ``("codes-eq",
    CodeSetPredicate)`` for fact equality/IN predicates over coded
    columns (the code-set summaries of dictionary columns), and
    ``("codes", first_dim)`` for dimension probes whose predicate
    vector exists at bind time — the engine intersects the FK column's
    code-set summary with the vector, falling back to an FK-range pass
    count where no summary applies.
    """

    __portable__ = True  # pickled across process boundaries (astore lint)

    op: str
    detail: str = ""
    payload: object = None
    selectivity: Optional[float] = None
    prune: Optional[tuple] = None

    def render(self) -> str:
        text = f"{self.op}({self.detail})" if self.detail else self.op
        if self.selectivity is not None:
            text += f" [sel~{self.selectivity:.4f}]"
        if self.prune is not None:
            if self.prune[0] == "interval":
                iv = self.prune[1]
                lo = "-inf" if iv.lo is None else iv.lo
                hi = "+inf" if iv.hi is None else iv.hi
                text += f" [prune {iv.column.name} in {lo}..{hi}]"
            elif self.prune[0] == "codes-eq":
                cs = self.prune[1]
                shown = ", ".join(str(v) for v in cs.values[:4])
                if len(cs.values) > 4:
                    shown += ", ..."
                text += f" [prune codes {cs.column.name} in ({shown})]"
            else:
                text += f" [prune code-set/fk-range via {self.prune[1]}]"
        return text


@dataclass
class PhysicalPlan:
    """The logical plan plus the optimizer's ordered, costed choices.

    ``pipeline`` is the explicit operator DAG: a scan source followed by
    filter/probe nodes in estimated-selectivity order, then grouping,
    aggregation, and result-shaping nodes.  The engine layer consumes it
    via ``repro.engine.executor`` (which also applies per-variant DAG
    rewrites) and the baselines reshape the same node kinds.
    """

    logical: LogicalPlan
    fact_conjuncts: Tuple[Tuple[BoundExpression, float], ...]
    dim_decisions: Tuple[DimDecision, ...]
    use_array_agg: bool
    estimated_groups: int
    axis_cardinalities: Tuple[int, ...] = field(default=())
    pipeline: Tuple[OpSpec, ...] = field(default=())

    def explain(self) -> str:
        """A compact, human-readable plan description."""
        lines = [f"root: {self.logical.root}"]
        for path in self.logical.paths:
            lines.append(f"path: {path}")
        for expr, sel in self.fact_conjuncts:
            lines.append(f"fact predicate (sel~{sel:.4f}): {expr}")
        for dd in self.dim_decisions:
            mode = "predicate-vector" if dd.use_filter else "direct-probe"
            lines.append(
                f"dim {dd.first_dim} [{mode}] "
                f"(sel~{dd.estimated_selectivity:.4f}): {dd.predicate}"
            )
        agg = "array" if self.use_array_agg else "hash"
        lines.append(
            f"aggregation: {agg} (estimated groups: {self.estimated_groups})"
        )
        if self.pipeline:
            lines.append("pipeline:")
            for i, spec in enumerate(self.pipeline):
                arrow = "   " if i == 0 else " ->"
                lines.append(f" {arrow} {spec.render()}")
        return "\n".join(lines)


def build_pipeline(logical: LogicalPlan,
                   fact_conjuncts: Tuple[Tuple[BoundExpression, float], ...],
                   dim_decisions: Tuple[DimDecision, ...],
                   use_array_agg: bool) -> Tuple[OpSpec, ...]:
    """The default (column-wise AIRScan) operator DAG for a plan."""
    specs: List[OpSpec] = [OpSpec("scan", logical.root)]
    steps: List[OpSpec] = []
    for expr, sel in fact_conjuncts:
        interval = predicate_interval(expr)
        prune = None
        if interval is not None and interval.column.table == logical.root:
            prune = ("interval", interval)
        else:
            code_set = predicate_code_set(expr)
            if (code_set is not None
                    and code_set.column.table == logical.root):
                prune = ("codes-eq", code_set)
        steps.append(OpSpec("filter", str(expr), payload=expr,
                            selectivity=sel, prune=prune))
    for dd in dim_decisions:
        mode = "vector" if dd.use_filter else "predicate"
        steps.append(OpSpec("air-probe", f"{dd.first_dim}:{mode}",
                            payload=dd,
                            selectivity=dd.estimated_selectivity,
                            prune=("codes", dd.first_dim) if dd.use_filter
                            else None))
    steps.sort(key=lambda s: s.selectivity)
    specs.extend(steps)
    if logical.is_projection:
        specs.append(OpSpec(
            "project", ", ".join(k.name for k in logical.projection_columns)))
    else:
        if logical.group_keys:
            specs.append(OpSpec(
                "group-combine",
                ", ".join(k.name for k in logical.group_keys)))
        agg = "array" if use_array_agg else "hash"
        specs.append(OpSpec(
            "aggregate", agg,
            payload=tuple(spec.name for spec in logical.aggregates)))
    if logical.order_by:
        specs.append(OpSpec(
            "order-by",
            ", ".join(key.output + (" desc" if key.descending else "")
                      for key in logical.order_by)))
    if logical.limit is not None:
        specs.append(OpSpec("limit", str(logical.limit)))
    return tuple(specs)


def optimize(logical: LogicalPlan, db: Database,
             cache: CacheModel = CacheModel(),
             use_predicate_filter: bool = True,
             array_agg: object = "auto",
             sample_size: int = 4096) -> PhysicalPlan:
    """Produce a :class:`PhysicalPlan` for *logical* over *db*.

    *array_agg* is ``True``/``False`` to force a strategy or ``"auto"``
    for the cache-model decision; *use_predicate_filter* globally disables
    predicate vectors (the AIRScan_R / AIRScan_C variants of Table 6).
    """
    fact_conjuncts = _order_fact_conjuncts(logical, db, sample_size)
    dim_decisions = _decide_dims(logical, db, cache, use_predicate_filter,
                                 sample_size)
    cards = tuple(
        _axis_cardinality(key, db, logical, sample_size)
        for key in logical.group_keys
    )
    estimated = 1
    for c in cards:
        estimated *= max(1, c)
    if array_agg == "auto":
        use_array = cache.aggregation_array_fits(estimated)
    elif isinstance(array_agg, bool):
        use_array = array_agg
    else:
        raise PlanError(f"invalid array_agg option {array_agg!r}")
    return PhysicalPlan(
        logical=logical,
        fact_conjuncts=fact_conjuncts,
        dim_decisions=dim_decisions,
        use_array_agg=use_array,
        estimated_groups=estimated,
        axis_cardinalities=cards,
        pipeline=build_pipeline(logical, fact_conjuncts, dim_decisions,
                                use_array),
    )


# -- estimation internals ------------------------------------------------------


def _sample_positions(n: int, sample_size: int) -> np.ndarray:
    if n <= sample_size:
        return np.arange(n, dtype=np.int64)
    return np.linspace(0, n - 1, sample_size).astype(np.int64)


def _order_fact_conjuncts(logical, db, sample_size):
    from ..engine.expression import evaluate_predicate
    from ..engine.slice import universal_provider

    root = db.table(logical.root)
    if not logical.fact_conjuncts:
        return ()
    sample = _sample_positions(root.num_rows, sample_size)
    provider = universal_provider(db, logical.root, logical.paths, sample)
    scored = []
    for expr in logical.fact_conjuncts:
        mask = evaluate_predicate(expr, provider)
        sel = float(mask.mean()) if len(mask) else 1.0
        scored.append((expr, sel))
    scored.sort(key=lambda pair: pair[1])
    return tuple(scored)


def _decide_dims(logical, db, cache, use_predicate_filter, sample_size):
    from ..engine.expression import evaluate_predicate
    from ..engine.slice import dimension_provider

    decisions: List[DimDecision] = []
    for first_dim, preds in logical.dim_conjuncts.items():
        predicate = preds[0] if len(preds) == 1 else BoundAnd(tuple(preds))
        dim_rows = db.table(first_dim).num_rows
        sample = _sample_positions(dim_rows, sample_size)
        provider = dimension_provider(db, first_dim, logical.paths, sample)
        mask = evaluate_predicate(predicate, provider)
        sel = float(mask.mean()) if len(mask) else 1.0
        use_filter = use_predicate_filter and cache.filter_fits(dim_rows)
        decisions.append(DimDecision(first_dim, predicate, use_filter, sel))
    decisions.sort(key=lambda d: d.estimated_selectivity)
    return tuple(decisions)


def _axis_cardinality(key: GroupKey, db: Database, logical,
                      sample_size: int) -> int:
    from ..core.statistics import statistics_for

    collected = statistics_for(db, key.column.table, key.column.name)
    if collected is not None and not collected.is_estimate:
        return max(1, collected.distinct)
    table = db.table(key.column.table)
    column = table[key.column.name]
    if isinstance(column, DictColumn):
        return max(1, column.cardinality)
    values = column.values()
    if key.column.table == logical.root and len(values) > sample_size:
        sample = values[_sample_positions(len(values), sample_size)]
        distinct = len(np.unique(sample))
        if distinct >= 0.9 * len(sample):
            # near-unique in the sample: assume a huge domain
            return len(values)
        return distinct
    if len(values) > 4_000_000:
        return len(values)
    return max(1, len(np.unique(values)))
