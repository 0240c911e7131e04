"""In-memory spans recorded by the driver around each call into a layer.

A span is ``{id, name, start, end, parent, request}``; ``id`` is its index in
the log, ``parent`` the id of the enclosing span (``None`` for a root), and
spans of one operation share a ``request`` number.  Self time is a span's
duration minus its children's.  Spans are only ever recorded in a ``--trace``
run; the end-to-end metrics come from runs that never create a ``Spans``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter


def timed(call: Callable) -> Tuple[float, object]:
    """``(seconds, result)`` of one call — the benchmark's only stopwatch."""
    start = clock()
    result = call()
    return clock() - start, result


class Spans:
    """One caller's span log (give each thread its own, then ``merge``)."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._open: List[int] = []
        self.request = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {"id": len(self.records), "name": name,
                  "start": clock(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "request": self.request}
        self._open.append(record["id"])
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = clock()
            self._open.pop()
            if not self._open:
                self.request += 1

    def shadow(self, name: str, parent: dict, duration: float) -> None:
        """A child whose duration was measured elsewhere (the server's own
        ``ms`` in a reply): centred inside its finished *parent*."""
        start = (parent["start"] + parent["end"] - duration) / 2
        self.records.append({
            "id": len(self.records), "name": name, "start": start,
            "end": start + duration, "parent": parent["id"],
            "request": parent["request"]})

    def merge(self, other: "Spans") -> None:
        """Append another caller's spans, re-basing parents and requests."""
        base, requests = len(self.records), self.request
        for record in other.records:
            moved = dict(record, id=record["id"] + base,
                         request=record["request"] + requests)
            if moved["parent"] is not None:
                moved["parent"] += base
            self.records.append(moved)
        self.request += other.request


def seconds(record: dict) -> float:
    return record["end"] - record["start"]


def self_times(records: List[dict]) -> Dict[str, float]:
    """Total self seconds per span name."""
    own = [seconds(r) for r in records]
    for record in records:
        if record["parent"] is not None:
            own[record["parent"]] -= seconds(record)
    totals: Dict[str, float] = {}
    for record, value in zip(records, own):
        totals[record["name"]] = totals.get(record["name"], 0.0) + value
    return totals


def unattributed_ratio(records: List[dict],
                       roots: Optional[List[str]] = None) -> float:
    """Root spans' self time over their duration: the share of an operation
    that no child span (layer call) accounts for.  *roots* names the root
    spans that are expected to have children; others are skipped."""
    own = {i: seconds(r) for i, r in enumerate(records)
           if r["parent"] is None and (roots is None or r["name"] in roots)}
    total = sum(own.values())
    for record in records:
        if record["parent"] in own:
            own[record["parent"]] -= seconds(record)
    return sum(own.values()) / total if total else 0.0


def mean_ms(records: List[dict], name: str) -> float:
    """Mean duration in ms of the spans called *name* (0 when there are none)."""
    durations = [seconds(r) for r in records if r["name"] == name]
    return 1e3 * sum(durations) / len(durations) if durations else 0.0
