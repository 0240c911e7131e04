"""Name resolution and logical planning for SPJGA queries.

The binder turns a parsed :class:`~repro.sqlparser.SelectStatement` plus a
:class:`~repro.core.Database` into a :class:`LogicalPlan`:

* it identifies the **root table** (the fact table) among the FROM tables
  and the reference paths to every touched leaf table;
* it checks that every explicit join predicate corresponds to a declared
  array index reference (A-Store supports only PK–FK joins, Section 3);
* it splits the WHERE clause into **fact conjuncts** (root-table columns
  only) and **dimension conjuncts**, each folded onto the *first-level*
  dimension of its reference path (snowflake predicates on ``nation`` or
  ``region`` fold onto ``customer``'s filter);
* it classifies the SELECT list into group keys and aggregate specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import Database
from ..core.schema import ReferencePath
from ..errors import BindError, PlanError
from ..sqlparser import ast as A
from ..sqlparser.parser import parse
from .expressions import (
    BoundAnd,
    BoundArith,
    BoundBetween,
    BoundColumn,
    BoundCompare,
    BoundExpression,
    BoundIn,
    BoundLike,
    BoundLiteral,
    BoundNot,
    BoundOr,
    tables_of,
)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``func(expr) AS name`` (COUNT(*) has no expr)."""

    __portable__ = True  # pickled across process boundaries (astore lint)

    func: str
    expr: Optional[BoundExpression]
    name: str


@dataclass(frozen=True)
class GroupKey:
    """One grouping column and its output name."""

    __portable__ = True  # pickled across process boundaries (astore lint)

    column: BoundColumn
    name: str


@dataclass(frozen=True)
class OrderKey:
    """One ORDER BY key, referring to an output column by name."""

    __portable__ = True  # pickled across process boundaries (astore lint)

    output: str
    descending: bool


@dataclass
class LogicalPlan:
    """A bound SPJGA query over a star/snowflake schema."""

    __portable__ = True  # pickled across process boundaries (astore lint)

    root: str
    tables: Tuple[str, ...]
    paths: Tuple[ReferencePath, ...]
    fact_conjuncts: Tuple[BoundExpression, ...]
    dim_conjuncts: Dict[str, List[BoundExpression]]  # first-level dim -> preds
    group_keys: Tuple[GroupKey, ...]
    aggregates: Tuple[AggSpec, ...]
    output_order: Tuple[str, ...]
    order_by: Tuple[OrderKey, ...] = field(default=())
    limit: Optional[int] = None
    projection_columns: Tuple[GroupKey, ...] = field(default=())

    @property
    def is_projection(self) -> bool:
        """True for pure SPJ queries (no grouping, no aggregation)."""
        return bool(self.projection_columns)

    @property
    def first_level_dims(self) -> List[str]:
        """Direct children of the root, in path order."""
        seen: List[str] = []
        for path in self.paths:
            first = path.references[0].parent_table
            if first not in seen:
                seen.append(first)
        return seen

    def subtree_of(self, first_dim: str) -> set[str]:
        """All tables on paths passing through *first_dim*."""
        out = set()
        for path in self.paths:
            if path.references[0].parent_table == first_dim:
                out.update(path.tables[1:])
        return out

    def path_to(self, table: str) -> ReferencePath:
        """The reference path whose leaf is *table*."""
        for path in self.paths:
            if path.leaf == table:
                return path
        raise PlanError(f"no reference path to table {table!r}")


def bind(query, db: Database) -> LogicalPlan:
    """Bind a SQL string or parsed statement against *db*."""
    stmt = parse(query) if isinstance(query, str) else query
    return _Binder(stmt, db).bind()


class _Binder:
    def __init__(self, stmt: A.SelectStatement, db: Database):
        self._stmt = stmt
        self._db = db

    def bind(self) -> LogicalPlan:
        stmt = self._stmt
        for name in stmt.tables:
            if name not in self._db:
                raise BindError(f"unknown table {name!r}")
        if len(set(stmt.tables)) != len(stmt.tables):
            raise PlanError("self-joins are not supported by A-Store")

        self._tables = list(stmt.tables)
        self._root, self._paths = self._find_root()
        self._column_owner = self._build_column_map()
        self._first_dim_of = self._map_first_level_dims()

        fact_conjuncts, dim_conjuncts = self._bind_where()
        group_keys = tuple(
            GroupKey(self._bind_column(c), c.name) for c in stmt.group_by
        )
        (group_keys, aggregates, output_order,
         projection) = self._bind_select(group_keys)
        order_by = self._bind_order(output_order, group_keys, aggregates)

        return LogicalPlan(
            root=self._root,
            tables=tuple(self._tables),
            paths=tuple(self._paths),
            fact_conjuncts=tuple(fact_conjuncts),
            dim_conjuncts=dim_conjuncts,
            group_keys=group_keys,
            aggregates=aggregates,
            output_order=output_order,
            order_by=order_by,
            limit=stmt.limit,
            projection_columns=projection,
        )

    # -- join graph ----------------------------------------------------------

    def _find_root(self):
        """Pick the FROM table from which every other FROM table is
        reachable through declared references."""
        table_set = set(self._tables)
        candidates = []
        for table in self._tables:
            try:
                paths = self._db.reference_paths(table, restrict_to=table_set)
            except Exception:
                continue
            reached = {p.leaf for p in paths} | {table}
            if table_set <= reached:
                candidates.append((table, paths))
        if not candidates:
            raise PlanError(
                f"tables {sorted(table_set)} do not form a single-rooted "
                "star/snowflake join graph"
            )
        if len(candidates) > 1:
            # prefer the largest table as the fact table (standard heuristic)
            candidates.sort(
                key=lambda c: self._db.table(c[0]).num_rows, reverse=True
            )
        root, paths = candidates[0]
        # keep only paths whose leaf the query actually lists
        paths = [p for p in paths if p.leaf in table_set]
        return root, paths

    def _map_first_level_dims(self) -> Dict[str, str]:
        """table -> first-level dimension of its path (root maps to itself)."""
        out = {self._root: self._root}
        for path in self._paths:
            first = path.references[0].parent_table
            for table in path.tables[1:]:
                out.setdefault(table, first)
        return out

    # -- column resolution ------------------------------------------------------

    def _build_column_map(self) -> Dict[str, str]:
        owner: Dict[str, Optional[str]] = {}
        for table in self._tables:
            for column in self._db.table(table).column_names:
                if column in owner:
                    owner[column] = None  # ambiguous
                else:
                    owner[column] = table
        return owner

    def _bind_column(self, ref: A.ColumnRef) -> BoundColumn:
        if ref.table is not None:
            if ref.table not in self._tables:
                raise BindError(f"table {ref.table!r} not in FROM clause")
            if ref.name not in self._db.table(ref.table):
                raise BindError(f"no column {ref.name!r} in {ref.table!r}")
            return BoundColumn(ref.table, ref.name)
        owner = self._column_owner.get(ref.name)
        if owner is None:
            if ref.name in self._column_owner:
                raise BindError(f"ambiguous column {ref.name!r}")
            raise BindError(f"unknown column {ref.name!r}")
        return BoundColumn(owner, ref.name)

    def _bind_expr(self, expr: A.Expression) -> BoundExpression:
        if isinstance(expr, A.ColumnRef):
            return self._bind_column(expr)
        if isinstance(expr, A.Literal):
            return BoundLiteral(expr.value)
        if isinstance(expr, A.BinaryOp):
            return BoundArith(expr.op, self._bind_expr(expr.left),
                              self._bind_expr(expr.right))
        if isinstance(expr, A.Comparison):
            return BoundCompare(expr.op, self._bind_expr(expr.left),
                                self._bind_expr(expr.right))
        if isinstance(expr, A.Between):
            return BoundBetween(self._bind_expr(expr.expr),
                                self._bind_expr(expr.low),
                                self._bind_expr(expr.high), expr.negated)
        if isinstance(expr, A.InList):
            return BoundIn(self._bind_expr(expr.expr),
                           tuple(v.value for v in expr.values), expr.negated)
        if isinstance(expr, A.Like):
            return BoundLike(self._bind_expr(expr.expr), expr.pattern,
                             expr.negated)
        if isinstance(expr, A.And):
            return BoundAnd(tuple(self._bind_expr(t) for t in expr.terms))
        if isinstance(expr, A.Or):
            return BoundOr(tuple(self._bind_expr(t) for t in expr.terms))
        if isinstance(expr, A.Not):
            return BoundNot(self._bind_expr(expr.term))
        if isinstance(expr, A.Aggregate):
            raise PlanError("aggregate calls are not allowed here")
        raise PlanError(f"unsupported expression {expr!r}")

    # -- WHERE splitting -----------------------------------------------------

    def _bind_where(self):
        fact: List[BoundExpression] = []
        dims: Dict[str, List[BoundExpression]] = {}
        where = self._stmt.where
        conjuncts = list(where.terms) if isinstance(where, A.And) else (
            [where] if where is not None else []
        )
        for conjunct in conjuncts:
            if self._is_join_predicate(conjunct):
                continue  # joins are carried by the storage model (AIR)
            bound = self._bind_expr(conjunct)
            touched = tables_of(bound)
            if not touched or touched == {self._root}:
                fact.append(bound)
                continue
            firsts = {self._first_dim_of[t] for t in touched}
            if len(firsts) != 1 or self._root in touched:
                raise PlanError(
                    "a predicate may not span multiple reference paths: "
                    f"{sorted(touched)}"
                )
            dims.setdefault(firsts.pop(), []).append(bound)
        return fact, dims

    def _is_join_predicate(self, conjunct: A.Expression) -> bool:
        """Recognize ``fk = pk`` equality conjuncts and validate them
        against the declared references."""
        if not (isinstance(conjunct, A.Comparison) and conjunct.op == "="
                and isinstance(conjunct.left, A.ColumnRef)
                and isinstance(conjunct.right, A.ColumnRef)):
            return False
        left = self._bind_column(conjunct.left)
        right = self._bind_column(conjunct.right)
        if left.table == right.table:
            return False
        for child, parent in ((left, right), (right, left)):
            ref = self._db.reference_for(child.table, child.name)
            if ref is not None and ref.parent_table == parent.table:
                if ref.parent_key is not None and ref.parent_key != parent.name:
                    raise PlanError(
                        f"join {child} = {parent} does not match the declared "
                        f"reference {ref}"
                    )
                return True
        raise PlanError(
            f"join predicate {left} = {right} has no declared array index "
            "reference; A-Store supports only PK-FK joins"
        )

    # -- SELECT classification ---------------------------------------------------

    def _bind_select(self, group_keys: Tuple[GroupKey, ...]):
        aggregates: List[AggSpec] = []
        out_keys: List[GroupKey] = list(group_keys)
        output_order: List[str] = []
        plain: List[GroupKey] = []
        has_agg = any(
            A.has_aggregate(item.expr) for item in self._stmt.items
        )
        taken = set()

        for item in self._stmt.items:
            if isinstance(item.expr, A.Aggregate):
                agg = item.expr
                if agg.distinct:
                    raise PlanError("DISTINCT aggregates are not supported")
                expr = self._bind_expr(agg.arg) if agg.arg is not None else None
                if agg.func != "COUNT" and expr is None:
                    raise PlanError(f"{agg.func} requires an argument")
                name = item.alias or self._default_agg_name(agg, taken)
                if name in taken:
                    raise BindError(f"duplicate output column {name!r}")
                taken.add(name)
                aggregates.append(AggSpec(agg.func, expr, name))
                output_order.append(name)
            elif isinstance(item.expr, A.ColumnRef):
                column = self._bind_column(item.expr)
                name = item.alias or item.expr.name
                if name in taken:
                    raise BindError(f"duplicate output column {name!r}")
                taken.add(name)
                if has_agg or self._stmt.group_by:
                    match = next(
                        (i for i, k in enumerate(out_keys) if k.column == column),
                        None,
                    )
                    if match is None:
                        raise PlanError(
                            f"column {column} must appear in GROUP BY"
                        )
                    out_keys[match] = GroupKey(column, name)
                else:
                    plain.append(GroupKey(column, name))
                output_order.append(name)
            elif A.has_aggregate(item.expr):
                raise PlanError(
                    "expressions over aggregates are not supported; "
                    "alias the aggregate instead"
                )
            else:
                raise PlanError(
                    "non-aggregate select expressions must be plain columns"
                )
        if has_agg and plain:
            raise PlanError("cannot mix aggregates and ungrouped columns")
        return tuple(out_keys), tuple(aggregates), tuple(output_order), tuple(plain)

    @staticmethod
    def _default_agg_name(agg: A.Aggregate, taken: set) -> str:
        if agg.arg is not None and isinstance(agg.arg, A.ColumnRef):
            base = f"{agg.func.lower()}_{agg.arg.name}"
        else:
            base = agg.func.lower()
        name, i = base, 2
        while name in taken:
            name = f"{base}_{i}"
            i += 1
        return name

    # -- ORDER BY ------------------------------------------------------------

    def _bind_order(self, output_order, group_keys, aggregates):
        names = set(output_order)
        # group keys are also addressable by their underlying column name
        by_column = {k.column.name: k.name for k in group_keys}
        keys: List[OrderKey] = []
        for item in self._stmt.order_by:
            expr = item.expr
            if isinstance(expr, A.ColumnRef) and expr.table is None:
                if expr.name in names:
                    keys.append(OrderKey(expr.name, item.descending))
                    continue
                if expr.name in by_column:
                    keys.append(OrderKey(by_column[expr.name], item.descending))
                    continue
            if isinstance(expr, A.Aggregate):
                match = self._match_aggregate(expr, aggregates)
                if match is not None:
                    keys.append(OrderKey(match, item.descending))
                    continue
            raise BindError(
                f"ORDER BY key must name an output column: {expr}"
            )
        return tuple(keys)

    def _match_aggregate(self, agg: A.Aggregate, aggregates) -> Optional[str]:
        expr = self._bind_expr(agg.arg) if agg.arg is not None else None
        for spec in aggregates:
            if spec.func == agg.func and spec.expr == expr:
                return spec.name
        return None
