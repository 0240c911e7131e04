"""Plain-text table/series formatting in the style of the paper's exhibits.

Every benchmark prints its rows with these helpers so the terminal output
can be compared side-by-side with the corresponding paper table or figure
(see benchmarks/results/ for the recorded comparisons).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (value != 0 and abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence]) -> str:
    """Render an aligned monospace table with a title rule."""
    str_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [f"\n== {title} ==", line(headers), rule]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def format_ratio_note(label_a: str, value_a: float,
                      label_b: str, value_b: float) -> str:
    """A one-line "A is Nx faster/slower than B" comparison note."""
    if value_a <= 0 or value_b <= 0:
        return f"{label_a} vs {label_b}: n/a"
    ratio = value_b / value_a
    relation = "faster than" if ratio >= 1 else "slower than"
    factor = ratio if ratio >= 1 else 1 / ratio
    return f"{label_a} is {factor:.2f}x {relation} {label_b}"


def host_note() -> str:
    """A one-line host header for CLI reports.

    The core count is the *usable* one (the scheduling affinity, not the
    physical count): a 1-core container can only measure dispatch
    overhead for multiprocess runs, and the header must say so.
    """
    import os
    import platform

    import numpy

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    note = (f"host: {cores} usable core(s), {platform.platform()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}")
    if cores == 1:
        note += ("\nnote: single usable core — multiprocess cells measure "
                 "dispatch overhead, not core scaling")
    return note
