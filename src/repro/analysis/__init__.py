"""Static invariant analysis (``astore lint``).

The engine rests on conventions that once lived only in
docs/architecture.md and review memory: registry state is only touched
under its declared lock, everything reachable from a portable bound
plan must pickle, every data mutation bumps the ``(table,
mutation_count)`` stamps, and ``async def`` bodies never block the
event loop.  This package turns those conventions into machine-checked
rules over Python's ``ast``:

* :mod:`~repro.analysis.loader` — source loading: parse trees with
  parent links, a ``with``-context tracker, ``# astore: ...`` marker
  comments, and the ``GUARDED_BY`` declarations the lock checker reads;
* :mod:`~repro.analysis.model` — the :class:`Finding` model and the
  committed :class:`Baseline`;
* :mod:`~repro.analysis.framework` — the :class:`Checker` protocol and
  :func:`run_lint`;
* :mod:`~repro.analysis.checkers` — the four project rules:
  ``lock-discipline``, ``plan-portability``, ``stamp-protocol``,
  ``async-hygiene``.

Suppress a single finding with a trailing ``# astore: ignore[rule-id]``
comment; declare a function that runs with a lock already held with
``# astore: holds[lock-expr]`` on its ``def`` line.  Findings that
predate the analyzer live in ``analysis/baseline.json`` (rewritten via
``astore lint --baseline``); CI fails on any finding outside it.
"""

from .framework import (
    LintReport,
    default_baseline_path,
    default_root,
    explain_rule,
    rule_ids,
    run_lint,
)
from .model import Baseline, Finding

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "default_baseline_path",
    "default_root",
    "explain_rule",
    "rule_ids",
    "run_lint",
]
