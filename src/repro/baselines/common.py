"""Shared machinery for the baseline (non-AIR) engines.

The baselines execute the same bound SPJGA plans as A-Store but join on
*key values* with hash tables, the way a conventional MMDB does.  They are
run against databases loaded with ``airify=False`` so foreign-key columns
still hold key values.

:class:`HashJoinProvider` mirrors the AIR engine's positional provider —
``(table, column)`` resolution along reference chains — but every hop is a
hash-table probe instead of a positional gather.  Because both engines
share the expression evaluator, the operator layer
(:mod:`repro.engine.operators`), and the aggregation kernels, measured
differences between A-Store and a baseline isolate exactly what the paper
varies: the join mechanism and the scan strategy.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import Database
from ..core.schema import Reference
from ..engine.aggregate import finalize
from ..engine.expression import evaluate_predicate
from ..engine.grouping import GroupAxis, decode_group_columns
from ..engine.orderby import sort_indices
from ..engine.result import ExecutionStats, QueryResult
from ..engine.slice import ArraySlice, DictSlice, chain_map
from ..errors import ExecutionError
from ..joins.hashtable import IntHashTable
from ..plan.binder import LogicalPlan, bind


class HashJoinProvider:
    """Positional provider whose reference hops are hash-table probes."""

    def __init__(self, db: Database, base: str,
                 chains: Dict[str, List[Reference]],
                 hash_tables: Dict[Reference, IntHashTable],
                 positions: Optional[np.ndarray] = None):
        self._db = db
        self._base = base
        self._chains = chains
        self._hash_tables = hash_tables
        self._positions = positions
        self._cache: Dict[str, Optional[np.ndarray]] = {base: positions}

    @property
    def length(self) -> int:
        if self._positions is not None:
            return len(self._positions)
        return self._db.table(self._base).num_rows

    def positions_for(self, table: str) -> Optional[np.ndarray]:
        """Parent positions per base row, resolved by hash probes."""
        if table in self._cache:
            return self._cache[table]
        if table not in self._chains:
            raise ExecutionError(
                f"table {table!r} not reachable from {self._base!r}")
        refs = self._chains[table]
        prefix = refs[:-1]
        prev_table = prefix[-1].parent_table if prefix else self._base
        prev = self.positions_for(prev_table) if prefix else self._positions
        last = refs[-1]
        column = self._db.table(last.child_table)[last.child_column]
        fk_values = column.values() if prev is None else column.take(prev)
        pos = self._hash_tables[last].probe(np.asarray(fk_values, np.int64))
        self._cache[table] = pos
        return pos

    def fetch(self, table: str, column_name: str):
        column = self._db.table(table)[column_name]
        pos = self.positions_for(table)
        from ..core.column import DictColumn

        if isinstance(column, DictColumn):
            codes = column.codes() if pos is None else column.take_codes(pos)
            return DictSlice(codes, column.dictionary)
        values = column.values() if pos is None else column.take(pos)
        return ArraySlice(values)

    def rebase(self, positions: np.ndarray,
               gathered: Optional[np.ndarray] = None) -> "HashJoinProvider":
        if gathered is not None:
            positions = gathered
        elif self._positions is not None:
            positions = self._positions[positions]
        return HashJoinProvider(self._db, self._base, self._chains,
                                self._hash_tables, positions)


def build_hash_tables(db: Database,
                      logical: LogicalPlan) -> Dict[Reference, IntHashTable]:
    """One hash table per reference edge used by the plan (PK → position)."""
    tables: Dict[Reference, IntHashTable] = {}
    for path in logical.paths:
        for ref in path.references:
            if ref in tables:
                continue
            parent = db.table(ref.parent_table)
            if ref.parent_key is None:
                keys = np.arange(parent.num_rows, dtype=np.int64)
            else:
                keys = np.asarray(parent[ref.parent_key].values(), np.int64)
            tables[ref] = IntHashTable(keys)
    return tables


def fact_provider(db: Database, logical: LogicalPlan,
                  hash_tables: Dict[Reference, IntHashTable],
                  positions: Optional[np.ndarray]) -> HashJoinProvider:
    """A provider over the fact table resolving dims by hash joins."""
    return HashJoinProvider(db, logical.root,
                            chain_map(logical.paths, logical.root),
                            hash_tables, positions)


def dim_provider(db: Database, logical: LogicalPlan, first_dim: str,
                 hash_tables: Dict[Reference, IntHashTable],
                 positions: Optional[np.ndarray] = None) -> HashJoinProvider:
    """A provider rooted at a first-level dimension (chain folding)."""
    relevant = [p for p in logical.paths if first_dim in p.tables]
    return HashJoinProvider(db, first_dim, chain_map(relevant, first_dim),
                            hash_tables, positions)


def dim_pass_mask(db: Database, logical: LogicalPlan, first_dim: str,
                  predicates: Sequence, hash_tables) -> np.ndarray:
    """Evaluate the folded dimension predicate over all first-dim rows."""
    provider = dim_provider(db, logical, first_dim, hash_tables)
    mask = np.ones(db.table(first_dim).num_rows, dtype=bool)
    for predicate in predicates:
        mask &= evaluate_predicate(predicate, provider)
    return mask


def assemble(logical: LogicalPlan, axes: Sequence[GroupAxis], state,
             stats: ExecutionStats) -> QueryResult:
    """Shared result assembly: decode groups, order, limit."""
    ids, aggs = finalize(state)
    if not logical.group_keys and len(ids) == 0:
        ids = np.zeros(1, dtype=np.int64)
        aggs = {
            spec.name: (np.zeros(1, dtype=np.int64)
                        if spec.func in ("COUNT", "SUM")
                        else np.array([np.nan]))
            for spec in logical.aggregates
        }
    columns: Dict[str, np.ndarray] = {}
    if axes:
        columns.update(decode_group_columns(axes, ids))
    columns.update(aggs)
    stats.groups = len(ids)
    ordered = {name: columns[name] for name in logical.output_order}
    if logical.order_by and len(ids) > 1:
        perm = sort_indices(ordered, logical.order_by)
        ordered = {name: values[perm] for name, values in ordered.items()}
    if logical.limit is not None:
        ordered = {name: values[: logical.limit]
                   for name, values in ordered.items()}
    return QueryResult(logical.output_order, ordered, stats)


class Timer:
    """Tiny helper to attribute elapsed time to stats fields."""

    def __init__(self):
        self._t = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed = now - self._t
        self._t = now
        return elapsed


def bind_for_baseline(query, db: Database) -> LogicalPlan:
    """Bind a query for a baseline engine (same binder as A-Store)."""
    return bind(query, db)
