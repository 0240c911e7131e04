"""Column and table statistics for cost-based planning and data skipping.

A-Store's optimizer needs three quantities: predicate selectivities,
dimension sizes (filter-vs-probe), and group-by cardinalities
(array-vs-hash).  This module collects them once at load time so repeated
planning does not re-sample the data; the optimizer falls back to its
sampling estimators for columns without collected statistics.

It also owns the **zone maps** behind the engine's block-level data
skipping: per-block min/max summaries of a table's fixed-width columns
and code-set summaries of its coded columns, built lazily per column and
stamped with ``Table.mutation_count`` so a mutated table can never
satisfy a lookup with a stale summary.  Zone maps live in the ``"zone"``
tier of a :class:`~repro.engine.cache.QueryCache`: the engine passes
the shared cache of its database, and process workers pass the cache of
their attached database (seeded zero-copy from the arena manifest).

Each summary kind has one per-block summariser, called with every block
by a full build and with the blocks a write touched by a patch: after a
mutation, :class:`ZoneMaps` patches the store's previous summary from
the table's mutation journal (:meth:`Table.journal_since`) instead of
rebuilding it, and the result equals the full build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SchemaError
from .column import AIRColumn, DictColumn, FixedColumn, StringColumn
from .schema import Database
from .table import Table


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics of one column.

    ``distinct`` is exact for dictionary columns and for columns scanned
    whole; for sampled columns it is a lower bound flagged by
    ``is_estimate``.
    """

    rows: int
    distinct: int
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    is_estimate: bool = False

    @property
    def density(self) -> float:
        """Average rows per distinct value."""
        return self.rows / self.distinct if self.distinct else 0.0


@dataclass
class TableStatistics:
    """Statistics for every column of one table."""

    rows: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)


def collect_statistics(db: Database, sample_rows: int = 262_144
                       ) -> Dict[str, TableStatistics]:
    """Collect statistics for all tables and attach them to *db*.

    The result is stored on ``db.statistics`` (and returned).  Columns of
    tables larger than *sample_rows* are sampled evenly; the ``distinct``
    count is then marked as an estimate.
    """
    stats: Dict[str, TableStatistics] = {}
    for name, table in db.tables.items():
        stats[name] = _table_statistics(table, sample_rows)
    db.statistics = stats  # type: ignore[attr-defined]
    return stats


def _table_statistics(table: Table, sample_rows: int) -> TableStatistics:
    out = TableStatistics(rows=table.num_rows)
    for col_name, column in table.columns.items():
        if isinstance(column, DictColumn):
            out.columns[col_name] = ColumnStatistics(
                rows=len(column), distinct=column.cardinality)
            continue
        if isinstance(column, StringColumn):
            values = column.values()
            sampled = len(values) > sample_rows
            if sampled:
                idx = np.linspace(0, len(values) - 1, sample_rows).astype(int)
                values = values[idx]
            out.columns[col_name] = ColumnStatistics(
                rows=len(column), distinct=len(set(values)),
                is_estimate=sampled)
            continue
        values = column.values()
        sampled = len(values) > sample_rows
        probe = values
        if sampled:
            idx = np.linspace(0, len(values) - 1, sample_rows).astype(int)
            probe = values[idx]
        distinct = int(len(np.unique(probe)))
        minimum = float(values.min()) if len(values) else None
        maximum = float(values.max()) if len(values) else None
        if isinstance(column, AIRColumn):
            # an AIR column's domain is the parent table's row space
            distinct = min(distinct, int(maximum - minimum + 1)) if len(values) else 0
        out.columns[col_name] = ColumnStatistics(
            rows=len(column), distinct=distinct, minimum=minimum,
            maximum=maximum, is_estimate=sampled)
    return out


def statistics_for(db: Database, table: str,
                   column: str) -> Optional[ColumnStatistics]:
    """Collected statistics for one column, or None if not collected."""
    stats = getattr(db, "statistics", None)
    if stats is None or table not in stats:
        return None
    return stats[table].columns.get(column)


def validate_references(db: Database) -> list[str]:
    """Check referential integrity of every AIR column.

    Returns a list of human-readable problems (empty = consistent):
    out-of-range references, references to deleted parent slots, and
    declared references that were never AIR-loaded.
    """
    problems: list[str] = []
    for ref in db.references:
        child = db.table(ref.child_table)
        column = child[ref.child_column]
        if not isinstance(column, AIRColumn):
            problems.append(f"{ref}: child column is not AIR-loaded")
            continue
        parent = db.table(ref.parent_table)
        refs = column.values()
        live_child = child.live_mask()
        active = refs[live_child]
        if len(active) == 0:
            continue
        if active.min() < 0 or active.max() >= parent.num_rows:
            problems.append(f"{ref}: reference out of range "
                            f"[0, {parent.num_rows})")
            continue
        if parent.has_deletes:
            parent_live = parent.live_mask()
            dangling = ~parent_live[active]
            if dangling.any():
                bad = int(active[dangling][0])
                problems.append(
                    f"{ref}: live child rows reference deleted parent "
                    f"slot {bad}")
    return problems


def assert_consistent(db: Database) -> None:
    """Raise :class:`SchemaError` if :func:`validate_references` finds
    any integrity violation."""
    problems = validate_references(db)
    if problems:
        raise SchemaError("; ".join(problems))


# -- zone maps (block-level data skipping) ------------------------------------


#: Largest zone-map block; :func:`default_zone_block_rows` never exceeds it.
MAX_ZONE_BLOCK_ROWS = 65536
#: Smallest zone-map block (finer summaries stop paying for themselves).
MIN_ZONE_BLOCK_ROWS = 1024


def default_zone_block_rows(num_rows: int) -> int:
    """The block size used when the caller does not force one.

    Targets ~256 blocks per table (fine enough that a selective band's
    boundary blocks waste little) on power-of-two boundaries, clamped to
    [:data:`MIN_ZONE_BLOCK_ROWS`, :data:`MAX_ZONE_BLOCK_ROWS`] so tiny
    tables do not get per-row summaries and huge tables do not get
    megablock summaries.  Verdict evaluation is O(blocks) on a handful
    of vectors, so resolution is nearly free.
    """
    if num_rows <= 0:
        return MIN_ZONE_BLOCK_ROWS
    target = max(1, num_rows // 256)
    block = 1 << max(0, target - 1).bit_length()
    return max(MIN_ZONE_BLOCK_ROWS, min(MAX_ZONE_BLOCK_ROWS, block))


@dataclass(frozen=True)
class ColumnZoneMap:
    """Per-block min/max of one fixed-width column.

    Block *b* covers physical rows ``[b * block_rows, (b+1) * block_rows)``
    — including deleted slots, whose values can only *widen* a block's
    range, so a summary built over physical rows is always a sound
    superset of any visible selection.  Float columns summarize with
    NaN-ignoring reducers so a block mixing NaNs and values keeps usable
    bounds; an all-NaN block keeps NaN bounds, on which every interval
    comparison is False — such a block is conservatively *scanned*, and
    its NaN rows then fail the predicates row-wise, so results are
    unaffected either way.
    """

    block_rows: int
    mins: np.ndarray
    maxs: np.ndarray

    @property
    def nblocks(self) -> int:
        return len(self.mins)

    @property
    def nbytes(self) -> int:
        return int(self.mins.nbytes + self.maxs.nbytes)


def _block_runs(blocks: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal runs ``[first, stop)`` of consecutive block ids in the
    sorted, unique *blocks*."""
    if not len(blocks):
        return []
    breaks = np.flatnonzero(np.diff(blocks) != 1) + 1
    firsts = blocks[np.concatenate(([0], breaks))]
    stops = blocks[np.concatenate((breaks - 1, [len(blocks) - 1]))] + 1
    return list(zip(firsts.tolist(), stops.tolist()))


def _reduce_blocks(ufunc, values: np.ndarray, block_rows: int,
                   out: np.ndarray, blocks: np.ndarray) -> None:
    """``out[b] = ufunc.reduce(block b of values)`` for each of *blocks*,
    one ``reduceat`` per run of consecutive blocks."""
    for first, stop in _block_runs(blocks):
        segment = values[first * block_rows:stop * block_rows]
        starts = np.arange(0, len(segment), block_rows, dtype=np.int64)
        out[first:stop] = ufunc.reduceat(segment, starts)


def _summary_array(previous: Optional[np.ndarray], nblocks: int,
                   dtype, width: Optional[int] = None) -> np.ndarray:
    """A fresh per-block summary array holding *previous*'s rows."""
    shape = (nblocks,) if width is None else (nblocks, width)
    out = np.empty(shape, dtype=dtype)
    if previous is not None:
        out[:len(previous)] = previous
    return out


def build_column_zone_map(column, block_rows: int,
                          previous: Optional[ColumnZoneMap] = None,
                          touched: Optional[np.ndarray] = None
                          ) -> Optional[ColumnZoneMap]:
    """A :class:`ColumnZoneMap` for *column*, or ``None`` if the layout
    has no orderable fixed-width values (dictionary codes order by
    insertion, not by value; string heaps are variable-width).

    With *previous* (a summary of an earlier state of the column) and
    the sorted ids of every block written since, *touched* (appended
    rows included), only those blocks are re-summarised and the rest
    copied; an untouched *previous* is returned as-is.  The result
    equals a full build either way.
    """
    if not isinstance(column, FixedColumn):  # AIRColumn subclasses it
        return None
    values = column.values()
    if values.dtype.kind not in ("i", "u", "f", "b"):
        return None
    if previous is not None and (previous.block_rows != block_rows
                                 or previous.mins.dtype != values.dtype):
        previous = None
    nblocks = -(-len(values) // block_rows)
    blocks = touched if previous is not None else np.arange(nblocks, dtype=np.int64)
    if previous is not None and not len(blocks):
        return previous
    mins = _summary_array(previous.mins if previous else None, nblocks, values.dtype)
    maxs = _summary_array(previous.maxs if previous else None, nblocks, values.dtype)
    if values.dtype.kind == "f":
        low, high = np.fmin, np.fmax
    else:
        low, high = np.minimum, np.maximum
    _reduce_blocks(low, values, block_rows, mins, blocks)
    _reduce_blocks(high, values, block_rows, maxs, blocks)
    return ColumnZoneMap(block_rows, mins, maxs)


#: Cap on the folded width of a code-set bitmap: domains larger than
#: this hash down (``code % fold``), trading exactness of ACCEPT
#: verdicts (never of SKIP soundness) for bounded summary size.
CODE_SET_FOLD_CAP = 1 << 18


@dataclass(frozen=True)
class ColumnCodeSetMap:
    """Per-block membership bitmaps over a small integer code domain.

    The second-generation summary for columns min/max maps cannot help
    with: dictionary codes (ordered by insertion, not value) and AIR
    reference positions (parent-row ids).  Bit ``(b, c % fold)`` is set
    iff block *b* contains a row whose code folds to that slot, where
    ``fold = min(domain, CODE_SET_FOLD_CAP)``.  A block whose bitmap
    misses every queried code can be SKIPped; when ``exact`` (no
    folding) a block whose bitmap is a subset of the queried codes is
    fully ACCEPTed.  Blocks containing out-of-domain codes (stale
    references parked in deleted slots) are flagged ``dirty`` and always
    scanned.
    """

    block_rows: int
    domain: int
    bits: np.ndarray      # (nblocks, ceil(fold / 8)) uint8, packed
    dirty: np.ndarray     # (nblocks,) bool
    exact: bool

    @property
    def fold(self) -> int:
        return min(self.domain, CODE_SET_FOLD_CAP)

    @property
    def nblocks(self) -> int:
        return len(self.bits)

    @property
    def nbytes(self) -> int:
        return int(self.bits.nbytes + self.dirty.nbytes)

    def fold_mask(self, member: np.ndarray) -> np.ndarray:
        """Pack a boolean *member* mask over the domain into the folded
        bit layout of this map (the probe side of a verdict)."""
        fold = self.fold
        if len(member) != self.domain:
            raise ValueError(
                f"member mask over {len(member)} values, domain "
                f"{self.domain}")
        if fold == self.domain:
            folded = member
        else:
            folded = np.zeros(fold, dtype=bool)
            np.logical_or.at(folded, np.flatnonzero(member) % fold, True)
        return np.packbits(folded)


def _summarise_code_blocks(codes: np.ndarray, block_rows: int, domain: int,
                           bits: np.ndarray, dirty: np.ndarray,
                           blocks: np.ndarray) -> None:
    """Fill ``bits[b]`` / ``dirty[b]`` for each of *blocks*: one reused
    fold-sized mask per call, set from the block's codes, packed into
    the block's row, then cleared again — so a block costs its rows
    plus one pack, whatever the domain."""
    fold = min(domain, CODE_SET_FOLD_CAP)
    mask = np.zeros(fold, dtype=bool)
    for b in blocks.tolist():
        chunk = codes[b * block_rows:(b + 1) * block_rows]
        out_of_domain = bool(chunk.min() < 0 or chunk.max() >= domain)
        dirty[b] = out_of_domain
        if out_of_domain:
            chunk = chunk[(chunk >= 0) & (chunk < domain)]
        slots = chunk % fold if fold < domain else chunk
        mask[slots] = True
        bits[b] = np.packbits(mask)
        mask[slots] = False


def build_column_code_set_map(column, block_rows: int,
                              domain: Optional[int] = None,
                              previous: Optional[ColumnCodeSetMap] = None,
                              touched: Optional[np.ndarray] = None
                              ) -> Optional[ColumnCodeSetMap]:
    """A :class:`ColumnCodeSetMap` for *column*, or ``None`` when the
    column has no code domain (neither dictionary- nor AIR-coded).

    For AIR columns the caller supplies *domain* (the parent table's
    physical row count); dictionary columns use their own cardinality.
    *previous* / *touched* patch an earlier summary as in
    :func:`build_column_zone_map`; a changed domain rebuilds in full.
    """
    if isinstance(column, DictColumn):
        codes = column.codes()
        domain = column.cardinality
    elif isinstance(column, AIRColumn):
        if domain is None:
            return None
        codes = column.values()
    else:
        return None
    domain = int(domain)
    if domain <= 0:
        return None
    if previous is not None and (previous.block_rows != block_rows
                                 or previous.domain != domain):
        previous = None
    fold = min(domain, CODE_SET_FOLD_CAP)
    nblocks = -(-len(codes) // block_rows)
    blocks = touched if previous is not None else np.arange(nblocks, dtype=np.int64)
    if previous is not None and not len(blocks):
        return previous
    bits = _summary_array(previous.bits if previous else None, nblocks, np.uint8,
                          width=(fold + 7) // 8)
    dirty = _summary_array(previous.dirty if previous else None, nblocks, bool)
    _summarise_code_blocks(codes, block_rows, domain, bits, dirty, blocks)
    return ColumnCodeSetMap(block_rows, domain, bits, dirty, fold == domain)


#: Store marker for columns whose layout cannot be zone-mapped, so the
#: build is not retried on every query.
_UNPRUNABLE = "__unprunable__"


def zone_map_key(table: str, column: str, block_rows: int) -> tuple:
    """The store key of one zone-map entry."""
    return ("zonemap", table, column, block_rows)


def code_set_key(table: str, column: str, block_rows: int) -> tuple:
    """The store key of one code-set summary entry."""
    return ("zonecodes", table, column, block_rows)


class ZoneMaps:
    """Lazily built, mutation-stamped zone maps of one database.

    A thin facade over a stamped *store* (see module docstring): every
    :meth:`column` / :meth:`code_set` call
    revalidates the entry's recorded ``(table, mutation_count)`` stamps
    against the live database, so a mutation after a build can never
    yield a stale — and therefore never a wrong — skip decision.

    A miss after a mutation is served by *patching*: the store's last
    summary of the same key plus the table's mutation journal since
    that summary's stamp name the touched blocks, and only those are
    re-summarised (an untouched summary is reused as-is).  Patched
    summaries equal full rebuilds; a barrier in the journal, a changed
    block size or domain falls back to the full build.
    """

    def __init__(self, db: Database, store, block_rows: int = 0):
        self._db = db
        self._store = store
        self._block_rows = int(block_rows)

    def block_rows_for(self, table: str) -> int:
        """The resolved block size used for *table*'s zone maps."""
        if self._block_rows > 0:
            return self._block_rows
        return default_zone_block_rows(self._db.table(table).num_rows)

    def column(self, table: str, name: str) -> Optional[ColumnZoneMap]:
        """The zone map of ``table.name`` (built on first use), or
        ``None`` when the column's layout cannot be summarized."""
        block_rows = self.block_rows_for(table)
        key = zone_map_key(table, name, block_rows)
        hit = self._store.get("zone", key, self._db)
        if hit is not None:
            return None if isinstance(hit, str) else hit
        tab = self._db.table(table)
        if name not in tab:
            return None
        stamps = ((table, tab.mutation_count),)  # read before the build
        previous, touched = self._prior(key, stamps, name)
        zm = build_column_zone_map(tab[name], block_rows, previous, touched)
        self._store_summary(key, zm, stamps, previous is not None)
        return zm

    def code_set(self, table: str, name: str) -> Optional[ColumnCodeSetMap]:
        """The code-set summary of ``table.name`` (built on first use),
        or ``None`` when the column has no code domain.

        AIR columns stamp the *parent* table too: the domain is the
        parent's physical row space, so a parent mutation (growth,
        compaction) invalidates the summary along with the child's own
        mutations.  A parent mutation that keeps the domain reuses the
        summary (its bits are the child's values); growth rebuilds it.
        """
        block_rows = self.block_rows_for(table)
        key = code_set_key(table, name, block_rows)
        hit = self._store.get("zone", key, self._db)
        if hit is not None:
            return None if isinstance(hit, str) else hit
        tab = self._db.table(table)
        if name not in tab:
            return None
        column = tab[name]
        stamps = [(table, tab.mutation_count)]  # read before the build
        domain = None
        if isinstance(column, AIRColumn):
            parent = self._db.table(column.referenced_table)
            stamps.append((column.referenced_table, parent.mutation_count))
            domain = parent.num_rows
        elif isinstance(column, DictColumn):
            domain = column.cardinality
        previous, touched = self._prior(key, stamps, name)
        if previous is not None and previous.domain != domain:
            previous = None
        csm = build_column_code_set_map(column, block_rows, domain,
                                        previous, touched)
        self._store_summary(key, csm, tuple(stamps), previous is not None)
        return csm

    def _prior(self, key: tuple, stamps, column: str):
        """The store's last summary under *key* and the sorted blocks
        its table's journal entries wrote *column* at since, or
        ``(None, None)`` when the journal cannot bridge the gap."""
        remembered = self._store.previous_summary(key)
        if remembered is None:
            return None, None
        previous, built_stamps = remembered
        table, now = stamps[0]
        built = dict(built_stamps).get(table)
        entries = (None if built is None
                   else self._db.table(table).journal_since(built, now))
        if entries is None:
            return None, None
        positions = [e.positions for e in entries if column in e.columns]
        if not positions:
            return previous, np.empty(0, dtype=np.int64)
        return previous, np.unique(np.concatenate(positions) // previous.block_rows)

    def _store_summary(self, key: tuple, value, stamps, patched: bool) -> None:
        if value is None:
            self._store.put("zone", key, _UNPRUNABLE, stamps, 0)
        else:
            self._store.put_summary(key, value, stamps, value.nbytes, patched)


def zone_maps_for(db: Database, store, block_rows: int = 0) -> ZoneMaps:
    """Zone maps of *db* backed by *store*, a
    :class:`~repro.engine.cache.QueryCache`, so zone-map builds show up
    as a regular cache tier (``astore cache``) and revalidate their
    mutation stamps like every other tier."""
    return ZoneMaps(db, store, block_rows)


def fresh_zone_entries(db: Database, store) -> List[Tuple[tuple, object]]:
    """All still-fresh zone-map entries of *store* for arena export.

    Returns ``(key, value)`` pairs whose stamps match the live database;
    unprunable markers are skipped (workers re-derive them for free).
    """
    return [(key, value) for key, value in store.tier_items("zone", db)
            if isinstance(value, (ColumnZoneMap, ColumnCodeSetMap))]


def rebuild_zone_maps(db: Database, table: str, store) -> int:
    """Proactively bring every summary of *table* up to date.

    Compaction bumps mutation stamps (a journal barrier), which already
    invalidates every cached summary; this warms the replacements
    eagerly so the first post-compaction query does not pay the rebuild.
    After an ordinary write the same call patches instead.  Returns the
    number of summaries refreshed.
    """
    zones = zone_maps_for(db, store=store)
    built = 0
    tab = db.table(table)
    for name in tab.columns:
        if zones.column(table, name) is not None:
            built += 1
        if zones.code_set(table, name) is not None:
            built += 1
    return built
