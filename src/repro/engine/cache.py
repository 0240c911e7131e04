"""Mutation-stamped query caching: compile once, serve many.

The paper's three-phase model front-loads *leaf processing* — packed
dimension predicate vectors (Section 4.2) and group-axis encodings
(Section 4.3) — yet a serving workload repeats the same (or
structurally similar) queries millions of times.  This module caches
every compile-time artifact between executions, with **exact**
invalidation piggybacked on the per-table ``Table.mutation_count``
stamps the process backend's exported image already uses:

* **plan tier** — keyed on a statement's *shape*
  (:func:`~repro.sqlparser.parser.statement_shape`: its token stream
  with the WHERE literals lifted out, so whitespace, keyword case and
  comments collapse) plus the compile-relevant engine options.  Under
  ``(options, shape)`` it holds the shape's *template*, the optimized
  :class:`~repro.plan.optimizer.PhysicalPlan` of its first text; under
  ``(options, shape, values, snapshot)`` the whole
  :class:`~repro.engine.sharding.BoundQuery` of one literal set.  A
  text of a known shape with new values skips parse, bind and optimize:
  its values go into the template's predicates
  (:func:`~repro.plan.optimizer.rebind`) and only the leaf stage runs;
* **leaf tier** — packed
  :class:`~repro.engine.operators.PredicateFilter` vectors keyed by
  (first-level dimension, canonicalized bound predicate), so SSB query
  *families* (Q2.1/Q2.2/Q2.3 share ``s_region`` predicates, Q3.x share
  region/year slices) reuse dimension scans across *different* queries;
* **axis tier** — the global group-axis encodings of
  :mod:`repro.engine.grouping`.  Encodings are selection-independent,
  so sharing is exact across every query grouping by the same keys;
* **result tier** (the serving tier, opt-in via
  ``EngineOptions.cache_results``) — finished
  :class:`~repro.engine.result.QueryResult` column sets for exact
  repeats.  Results are stamped like every other tier, so a mutation
  anywhere in the query's table set drops the entry instead of serving
  stale rows.  Served results share their column arrays with the cached
  copy, and that sharing is **enforced immutable**: the executor
  freezes the arrays (read-only views) before storing, :meth:`put`
  rejects a writable result-tier entry, and every hit is handed out as
  a per-caller :meth:`~repro.engine.result.QueryResult.served_copy`
  with its own column map — one caller mutating a served result can
  neither corrupt the cache nor be observed by a concurrent caller.

Every entry records the ``(table, mutation_count)`` stamps of the
tables it was computed from and is revalidated on lookup — an update to
``customer`` evicts customer-derived filters and axes but leaves
``date``-only artifacts warm.  An entry may additionally *declare* the
columns of one table it encodes (a plan: the fact table and its GROUP
BY columns); a moved stamp of that table then still counts as fresh
when the table's mutation journal (:meth:`Table.journal_since`) bridges
the gap and no journaled write touched a declared column.  Only the
plan tier declares; every other tier — the result tier above all —
keeps exact stamps.  One cache is shared per database object
(:func:`query_cache_for`), so a harness line-up of ten engine variants
over the same database shares dimension scans and axes between them.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core import Database
from ..sqlparser.parser import statement_shape

#: Cache tiers, in lookup order of a warm query.  ``zone`` holds the
#: per-block zone-map summaries behind data skipping (see
#: :mod:`repro.core.statistics`) — stamped and invalidated like every
#: compile tier, but keyed by data layout rather than by query.
TIERS = ("plan", "leaf", "axis", "zone", "result")

Stamps = Tuple[Tuple[str, int], ...]

#: ``(table, encoded columns)``: the one table whose stamp an entry lets
#: the journal bridge, and the columns of it the entry's value encodes.
Bridge = Tuple[str, FrozenSet[str]]


def table_stamps(db: Database, tables: Iterable[str]) -> Stamps:
    """Point-in-time ``(table, mutation_count)`` stamps for *tables*."""
    return tuple(sorted(
        (name, db.table(name).mutation_count) for name in set(tables)))


@dataclass
class TierStats:
    """Cumulative counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0
    expirations: int = 0
    bytes: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when the tier was never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0


class _Entry:
    __slots__ = ("value", "stamps", "nbytes", "created", "bridge")

    def __init__(self, value, stamps: Stamps, nbytes: int,
                 created: float = 0.0, bridge: Optional[Bridge] = None):
        self.value = value
        self.stamps = stamps
        self.nbytes = nbytes
        self.created = created
        self.bridge = bridge


class QueryCache:
    """A multi-tier compile cache plus the opt-in result serving tier.

    Entries are LRU-evicted per tier beyond ``max_entries``; the result
    tier is additionally byte-budgeted (``result_budget_bytes``, with a
    per-entry cap), entry-capped (``max_result_entries``) and optionally
    TTL-bounded (``result_ttl_seconds``) since a serving deployment must
    bound both the footprint and the age of what it answers from.
    Lookups revalidate the entry's recorded mutation stamps against the
    live database, so a stale entry can never be served — it is dropped
    and counted as an invalidation (expired results count separately).
    """

    def __init__(self, max_entries: int = 512,
                 result_budget_bytes: int = 128 << 20,
                 max_result_entry_bytes: int = 32 << 20,
                 result_ttl_seconds: float = 0.0,
                 max_result_entries: int = 0,
                 clock=time.monotonic):
        self.max_entries = max_entries
        self.result_budget_bytes = result_budget_bytes
        self.max_result_entry_bytes = max_result_entry_bytes
        self.result_ttl_seconds = float(result_ttl_seconds)
        self.max_result_entries = int(max_result_entries)
        self._clock = clock
        self._lock = threading.RLock()
        self._tiers: Dict[str, "OrderedDict[tuple, _Entry]"] = {
            tier: OrderedDict() for tier in TIERS}
        self._stats: Dict[str, TierStats] = {
            tier: TierStats() for tier in TIERS}
        #: the last summary stored under each zone key, fresh or not,
        #: with its stamps: what a post-mutation miss patches (LRU-bounded
        #: like a tier: verdict keys carry query literals)
        self._summaries: "OrderedDict[tuple, Tuple[object, Stamps]]" = (
            OrderedDict())
        #: summaries stored per zone key kind: [built, patched]
        self._summary_counts: Dict[str, List[int]] = {}

    def configure_result_tier(self, ttl_seconds: Optional[float] = None,
                              max_entries: Optional[int] = None) -> None:
        """Adjust the serving-tier bounds (``None`` leaves a bound as
        is; 0 disables it).  The cache is shared per database, so the
        engine applies explicit settings, last writer wins."""
        with self._lock:
            if ttl_seconds is not None:
                self.result_ttl_seconds = float(ttl_seconds)
            if max_entries is not None:
                self.max_result_entries = int(max_entries)

    def _entry_cap(self, tier: str) -> int:
        if tier == "result" and self.max_result_entries > 0:
            return min(self.max_entries, self.max_result_entries)
        return self.max_entries

    # -- core protocol ------------------------------------------------------

    def get(self, tier: str, key: tuple, db: Database):
        """The cached value, or ``None`` on a miss or a stale entry."""
        return self.get_first(tier, (key,), db)[1]

    def get_first(self, tier: str, keys: Tuple[tuple, ...],
                  db: Database) -> Tuple[int, object]:
        """``(index, value)`` of the first of *keys* holding a fresh
        entry, or ``(-1, None)``: one hit or one miss in the tier's
        counters, however many keys it tried (the plan tier tries a
        literal set's own plan, then its shape's template)."""
        with self._lock:
            entries = self._tiers[tier]
            stats = self._stats[tier]
            for index, key in enumerate(keys):
                entry = entries.get(key)
                if entry is None:
                    continue
                if (tier == "result" and self.result_ttl_seconds > 0
                        and self._clock() - entry.created
                        > self.result_ttl_seconds):
                    entries.pop(key, None)
                    stats.bytes -= entry.nbytes
                    stats.expirations += 1
                    continue
                if not self._fresh(entry, db):
                    entries.pop(key, None)
                    stats.bytes -= entry.nbytes
                    stats.invalidations += 1
                    continue
                entries.move_to_end(key)
                stats.hits += 1
                return index, entry.value
            stats.misses += 1
            return -1, None

    def put(self, tier: str, key: tuple, value, stamps: Stamps,
            nbytes: int = 0, bridge: Optional[Bridge] = None) -> bool:
        """Store *value*; returns False when it exceeds the tier's caps.

        *bridge* declares the ``(table, columns)`` the value encodes of
        one of its stamped tables (see the module docstring); only the
        plan tier may declare one.

        Result-tier values must be frozen (read-only column arrays, see
        :meth:`QueryResult.freeze`): a writable entry would let one
        served caller mutate what every later caller is handed."""
        if bridge is not None and tier != "plan":
            raise ValueError(
                f"only plan-tier entries may bridge a stamp, not {tier!r}")
        if tier == "result" and not _result_is_frozen(value):
            raise ValueError(
                "result-tier entries must be frozen QueryResults "
                "(store result.freeze(), serve result.served_copy())")
        with self._lock:
            if tier == "result" and nbytes > self.max_result_entry_bytes:
                return False
            entries = self._tiers[tier]
            stats = self._stats[tier]
            old = entries.pop(key, None)
            if old is not None:
                stats.bytes -= old.nbytes
            entries[key] = _Entry(value, stamps, nbytes,
                                  created=self._clock(), bridge=bridge)
            stats.bytes += nbytes
            stats.stores += 1
            budget = (self.result_budget_bytes if tier == "result"
                      else None)
            while len(entries) > self._entry_cap(tier) or (
                    budget is not None and stats.bytes > budget
                    and len(entries) > 1):
                _, evicted = entries.popitem(last=False)
                stats.bytes -= evicted.nbytes
                stats.evictions += 1
            return True

    def put_summary(self, key: tuple, value, stamps: Stamps, nbytes: int,
                    patched: bool) -> None:
        """Store a block summary in the zone tier and remember it for
        patching after the next mutation; *patched* says whether it was
        derived from a previous summary or built from scratch."""
        with self._lock:
            self._summaries[key] = (value, stamps)
            self._summaries.move_to_end(key)
            while len(self._summaries) > self.max_entries:
                self._summaries.popitem(last=False)
            counts = self._summary_counts.setdefault(key[0], [0, 0])
            counts[1 if patched else 0] += 1
            self.put("zone", key, value, stamps, nbytes)

    def previous_summary(self, key: tuple) -> Optional[Tuple[object, Stamps]]:
        """The last summary stored under zone *key* and its stamps, even
        when a mutation has since made it stale (``None`` if none)."""
        with self._lock:
            return self._summaries.get(key)

    def tier_items(self, tier: str, db: Database) -> List[Tuple[tuple, object]]:
        """``(key, value)`` pairs of *tier* whose stamps are still fresh
        (used by the arena export to ship zone maps; stale entries are
        skipped without being counted as lookups)."""
        with self._lock:
            return [(key, entry.value)
                    for key, entry in self._tiers[tier].items()
                    if self._fresh(entry, db)]

    @staticmethod
    def _fresh(entry: _Entry, db: Database) -> bool:
        """Whether *entry*'s value still holds for the live database.

        Every stamp must match, except the bridged table's: its moved
        stamp is fresh when the journal accounts for every mutation
        since (no barrier, no overflow) and none of them wrote a column
        the entry encodes.  A bridged stamp is advanced, so the next
        lookup compares exactly again."""
        for name, count in entry.stamps:
            try:
                table = db.table(name)
            except Exception:
                return False
            now = table.mutation_count
            if now == count:
                continue
            if entry.bridge is None or entry.bridge[0] != name:
                return False
            written = table.journal_since(count, now)
            if written is None or any(
                    not e.columns.isdisjoint(entry.bridge[1])
                    for e in written):
                return False
            entry.stamps = tuple((n, now if n == name else c)
                                 for n, c in entry.stamps)
        return True

    def clear(self) -> None:
        with self._lock:
            for tier in TIERS:
                self._tiers[tier].clear()
                self._stats[tier].bytes = 0
            self._summaries.clear()

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, TierStats]:
        """Per-tier cumulative counters (entry counts refreshed)."""
        with self._lock:
            for tier in TIERS:
                self._stats[tier].entries = len(self._tiers[tier])
            return {tier: self._stats[tier] for tier in TIERS}

    def counters(self) -> Dict[str, int]:
        """A flat counter snapshot, for before/after deltas."""
        out: Dict[str, int] = {}
        for tier, stats in self.stats().items():
            out[f"{tier}.hits"] = stats.hits
            out[f"{tier}.misses"] = stats.misses
        return out

    #: display labels for the zone tier's entry kinds, by key prefix
    _ZONE_KIND_LABELS = (
        ("zonemap", "min/max"),
        ("zonecodes", "code-set"),
        ("zonestate", "verdicts"),
    )

    def summary_counts(self) -> Dict[str, Tuple[int, int]]:
        """``{kind label: (built, patched)}`` for the block summaries
        stored so far: a patched summary was derived from the previous
        one plus the blocks a write touched, a built one from scratch."""
        labels = dict(self._ZONE_KIND_LABELS)
        with self._lock:
            return {labels.get(prefix, prefix): (built, patched)
                    for prefix, (built, patched)
                    in self._summary_counts.items()}

    def zone_kind_rows(self) -> List[list]:
        """Per-kind sub-rows of the zone tier: entries and KiB for each
        summary kind (min/max zone maps, code-set bitmaps, memoized
        verdict runs), plus how many summaries of the kind were built
        from scratch vs patched after a write —
        ``astore cache`` appends them under the zone tier so code sets
        show up distinctly."""
        counts = self.summary_counts()
        with self._lock:
            kinds: Dict[str, List[int]] = {}
            for key, entry in self._tiers["zone"].items():
                prefix = key[0] if isinstance(key, tuple) and key else "?"
                bucket = kinds.setdefault(prefix, [0, 0])
                bucket[0] += 1
                bucket[1] += entry.nbytes
        rows = []
        for prefix, label in self._ZONE_KIND_LABELS:
            if prefix in kinds:
                entries, nbytes = kinds.pop(prefix)
                built, patched = counts.get(label, ("", ""))
                rows.append([f"  zone/{label}", entries, "", "", "", "",
                             "", nbytes / 1024.0, built, patched])
        for prefix in sorted(kinds):
            entries, nbytes = kinds[prefix]
            rows.append([f"  zone/{prefix}", entries, "", "", "", "",
                         "", nbytes / 1024.0, "", ""])
        return rows

    def stats_rows(self) -> List[list]:
        """``[tier, entries, hits, misses, hit %, invalidated, expired,
        KiB, built, patched]`` rows for :func:`repro.bench.format_table`.
        The zone tier is followed by :meth:`zone_kind_rows` breaking its
        entries down by summary kind; only those rows fill the built /
        patched columns."""
        rows = []
        for tier, stats in self.stats().items():
            rows.append([
                tier, stats.entries, stats.hits, stats.misses,
                100.0 * stats.hit_rate, stats.invalidations,
                stats.expirations, stats.bytes / 1024.0, "", "",
            ])
            if tier == "zone":
                rows.extend(self.zone_kind_rows())
        return rows

    @staticmethod
    def hit_rates(before: Dict[str, int],
                  after: Dict[str, int]) -> Dict[str, float]:
        """Per-tier hit rates over the window between two counter
        snapshots (tiers with no lookups in the window are omitted)."""
        rates: Dict[str, float] = {}
        for tier in TIERS:
            hits = after.get(f"{tier}.hits", 0) - before.get(f"{tier}.hits", 0)
            misses = (after.get(f"{tier}.misses", 0)
                      - before.get(f"{tier}.misses", 0))
            if hits + misses:
                rates[tier] = hits / (hits + misses)
        return rates


def _result_is_frozen(value) -> bool:
    """Duck-typed immutability check for serving-tier entries (anything
    without a ``frozen`` attribute — e.g. a test stub — is let through)."""
    return bool(getattr(value, "frozen", True))


# -- the front end's per-text memo --------------------------------------------


#: ``(shape, values)`` of a SQL text, memoized: the serving layer keys a
#: request on the event loop and the engine compiles it on an executor
#: thread, and an exact repeat lexes nothing at all.  A text is parsed
#: only when its shape has no template yet.
parse_cached = functools.lru_cache(maxsize=512)(statement_shape)


def axis_nbytes(axis) -> int:
    """Resident bytes of a cached :class:`GroupAxis` (decoded columns +
    the dimension-sized group vector)."""
    total = sum(values.nbytes for values in axis.columns.values())
    if axis.dim_codes is not None:
        total += axis.dim_codes.nbytes
    if axis.sorted_domain is not None:
        total += axis.sorted_domain.nbytes
    return total


def bound_nbytes(bound) -> int:
    """Resident bytes of a cached bound plan (leaf products + axes)."""
    total = 0
    for pf in bound.leaf.filters.values():
        total += pf.nbytes
    for axis in bound.leaf.axes:
        total += axis_nbytes(axis)
    return total


# -- one shared cache per database object -------------------------------------


_CACHES: "weakref.WeakKeyDictionary[Database, QueryCache]" = (
    weakref.WeakKeyDictionary())
_CACHES_LOCK = threading.Lock()

#: Lock contract, machine-checked by ``astore lint`` (lock-discipline).
#: The tier dicts and their stats move together under the cache's
#: reentrant lock; the process-wide registry has its own (the unlocked
#: get-or-create here was a check-then-act race: two threads resolving
#: the same database could mint two caches, splitting single-flight
#: state between them).
GUARDED_BY = {
    "_CACHES": "_CACHES_LOCK",
    "QueryCache._tiers": "self._lock",
    "QueryCache._stats": "self._lock",
    "QueryCache._summaries": "self._lock",
    "QueryCache._summary_counts": "self._lock",
}


def query_cache_for(db: Database) -> QueryCache:
    """The shared :class:`QueryCache` of *db* (created on first use).

    Weakly keyed by object identity — stamps then track content
    *within* that object's lifetime, and the cache dies with the
    database, so entries can never outlive (or be misattributed to)
    their data.
    """
    with _CACHES_LOCK:
        cache = _CACHES.get(db)
        if cache is None:
            cache = _CACHES[db] = QueryCache()
        return cache
