"""Timing and paper-style table helpers for the benchmark modules.

The gated end-to-end measurement lives in ``benchmarks/e2e``; this
package only holds what the paper-exhibit modules under ``benchmarks/``
and the CLI's report printers share.
"""

from .report import format_ratio_note, format_table, host_note
from .timing import best_of, ms, ns_per_tuple

__all__ = [
    "best_of", "format_ratio_note", "format_table", "host_note", "ms",
    "ns_per_tuple",
]
