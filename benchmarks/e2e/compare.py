#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds one or more result documents, one JSON object per line, as
``run.py --out FILE`` appends them; *A* is the parent, *B* the change.  Every
end-to-end row prints both medians and quartiles and one verdict from the
bounds in ``BENCHMARK.json``:

``regressed``   B's median is worse than A's by more than the bound
``improved``    B's median is better than A's by more than the bound
``unresolved``  neither, but a side's inter-quartile spread exceeds the bound
``unchanged``   neither, and both spreads are within the bound

Per-layer rows (from ``--trace`` runs) have no bound and print the change
only.  Exits 1 on any ``regressed`` row or any rise in failed / attempted.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> List[dict]:
    with open(path) as source:
        return [json.loads(line) for line in source if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def by_row(documents: List[dict], trace: int) -> Dict[tuple, List[float]]:
    rows: Dict[tuple, List[float]] = defaultdict(list)
    for document in documents:
        if document["trace"] == trace:
            for name, metric in document["metrics"].items():
                rows[name, document["workload"]].append(metric["value"])
    return rows


def failed_ratio(documents: List[dict]) -> Dict[str, float]:
    counts: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for document in documents:
        counts[document["workload"]][0] += (document["failed"]
                                            + len(document["leaks"]))
        counts[document["workload"]][1] += document["attempted"]
    return {name: failed / attempted
            for name, (failed, attempted) in counts.items()}


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / abs(base) if base else 0.0
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unresolved" if max(spread(a), spread(b)) > bound else "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    side_a, side_b = load(argv[0]), load(argv[1])
    status = 0
    print(f"{'metric':32s} {'workload':14s} {'A q1':>11s} {'A median':>11s} "
          f"{'A q3':>11s} {'B q1':>11s} {'B median':>11s} {'B q3':>11s} "
          f"{'change':>8s}  verdict")
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        rows_a, rows_b = by_row(side_a, trace), by_row(side_b, trace)
        for metric in spec[kind]:
            for workload in (w["name"] for w in spec["workloads"]):
                key = metric["name"], workload
                if key not in rows_a or key not in rows_b:
                    continue
                a, b = rows_a[key], rows_b[key]
                base, new = statistics.median(a), statistics.median(b)
                change = f"{(new - base) / abs(base):+8.1%}" if base else "     n/a"
                outcome = (verdict(a, b, metric["better"], metric["bound"])
                           if "bound" in metric else "-")
                if outcome == "regressed":
                    status = 1
                print(f"{key[0]:32s} {key[1]:14s} "
                      + " ".join(f"{v:11.4f}" for v in (*quartiles(a),
                                                        *quartiles(b)))
                      + f" {change}  {outcome} (n={len(a)}/{len(b)})")
    ratio_a, ratio_b = failed_ratio(side_a), failed_ratio(side_b)
    for workload in sorted(set(ratio_a) & set(ratio_b)):
        rose = ratio_b[workload] > ratio_a[workload]
        print(f"{'failed_ratio':32s} {workload:14s} {ratio_a[workload]:.6f} "
              f"-> {ratio_b[workload]:.6f}  {'ROSE' if rose else 'ok'}")
        if rose:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
