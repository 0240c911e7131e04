"""Deterministic fault injection for the serving front door.

A *chaos rule* arms one named call site with one fault action:

* ``kill``    — ``os._exit(137)``: the process dies exactly where a
  SIGKILL would land (a serve process mid-request);
* ``delay``   — sleep ``value`` seconds (past a deadline, if the test
  arranges one);
* ``drop``    — raise :class:`ChaosDrop` (a ``ConnectionError``): the
  request fails exactly as if its connection vanished;
* ``error``   — raise :class:`ChaosError`: a generic internal failure.

Sites are plain strings drawn from :data:`KNOWN_SITES`
(``serve.request`` and ``coordinator.admit``); code under test calls
:func:`chaos_point` (or :func:`chaos_point_async` on an event loop) at
each site and is otherwise unaffected — with no rules installed a chaos
point is a dict lookup.  A spec naming a site outside the registry (or
attaching ``=value`` to an action that takes none) raises the typed
:class:`~repro.errors.ChaosSpecError` instead of silently arming a rule
that can never fire.

Rules are deterministic, not probabilistic: each fires on an exact
*hit index* of its site (per process), so every recovery path is
reproducible.  The spec grammar is::

    action@site[:first][xcount][=value] [; more rules]

``first`` is the 1-based hit at which the rule starts firing (default
1), ``count`` how many consecutive hits fire (default 1; 0 = every hit
from ``first`` on), ``value`` the delay in seconds.  Examples:
``kill@serve.request:3`` (die on the 3rd request),
``delay@serve.request:1x0=0.4`` (delay every request 0.4 s),
``drop@coordinator.admit`` (shed the first request).  Specs travel to
spawned processes through the ``ASTORE_CHAOS`` environment variable,
loaded lazily on first use.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ChaosSpecError

ENV_VAR = "ASTORE_CHAOS"

_ACTIONS = ("kill", "delay", "drop", "error")

#: Every call site the production code arms — a rule naming anything
#: else is a spec typo, and a typo'd site would otherwise just never
#: fire (the worst possible failure mode for a chaos test).
KNOWN_SITES = frozenset({
    "coordinator.admit",     # serve front door: request admission
    "serve.request",         # serve layer: a query request accepted
})


class ChaosDrop(ConnectionError):
    """An injected connection loss (the ``drop`` action)."""


class ChaosError(RuntimeError):
    """An injected generic failure (the ``error`` action)."""


@dataclass(frozen=True)
class ChaosRule:
    """One armed fault: fire *action* at hits [first, first+count) of *site*
    (count 0 = unbounded); *value* is the delay in seconds."""

    action: str
    site: str
    first: int = 1
    count: int = 1
    value: float = 0.0

    def due(self, hit: int) -> bool:
        if hit < self.first:
            return False
        return self.count == 0 or hit < self.first + self.count


def parse_rules(spec: str) -> List[ChaosRule]:
    """Parse a ``;``-separated rule spec (see module docstring).

    Malformed rules raise the typed :class:`ChaosSpecError` (a
    ``ValueError`` subclass): unknown actions, unknown sites, empty
    sites, non-numeric triggers, and ``=value`` on any action other
    than ``delay`` (the only one that consumes a value).
    """
    rules: List[ChaosRule] = []
    for part in (spec or "").split(";"):
        part = part.strip()
        if not part:
            continue
        body, has_value, raw_value = part.partition("=")
        action, sep, target = body.partition("@")
        action = action.strip()
        if not sep or action not in _ACTIONS:
            raise ChaosSpecError(f"bad chaos rule {part!r}: expected "
                                 f"action@site with action in {_ACTIONS}")
        if has_value and action != "delay":
            raise ChaosSpecError(
                f"bad chaos rule {part!r}: only the delay action takes "
                f"=value (seconds)")
        site, _, trigger = target.partition(":")
        site = site.strip()
        if not site:
            raise ChaosSpecError(f"bad chaos rule {part!r}: empty site")
        if site not in KNOWN_SITES:
            raise ChaosSpecError(
                f"bad chaos rule {part!r}: unknown site {site!r} "
                f"(a typo'd site would never fire); known sites: "
                f"{', '.join(sorted(KNOWN_SITES))}")
        first, count = 1, 1
        if trigger:
            raw_first, x, raw_count = trigger.partition("x")
            try:
                first = int(raw_first) if raw_first else 1
                count = int(raw_count) if x else 1
            except ValueError:
                raise ChaosSpecError(
                    f"bad chaos rule {part!r}: trigger must be "
                    f":first[xcount] with integer hits") from None
        try:
            value = float(raw_value) if raw_value else 0.0
        except ValueError:
            raise ChaosSpecError(
                f"bad chaos rule {part!r}: =value must be a number "
                f"of seconds") from None
        rules.append(ChaosRule(action, site, first, count, value))
    return rules


def format_rules(rules: Sequence[ChaosRule]) -> str:
    """The spec string for *rules* (inverse of :func:`parse_rules`)."""
    parts = []
    for rule in rules:
        part = f"{rule.action}@{rule.site}"
        if rule.first != 1 or rule.count != 1:
            part += f":{rule.first}x{rule.count}"
        if rule.value:
            part += f"={rule.value:g}"
        parts.append(part)
    return ";".join(parts)


class ChaosController:
    """Per-process rule set + per-site hit counters (thread-safe).

    ``fired`` records every triggered ``(site, action, hit)`` so tests
    can assert a fault actually fired, not just that recovery code ran.
    """

    def __init__(self, rules: Sequence[ChaosRule] = ()):
        self._rules: List[ChaosRule] = list(rules)
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.fired: List[Tuple[str, str, int]] = []

    def install(self, spec: Union[str, Sequence[ChaosRule]]) -> None:
        rules = parse_rules(spec) if isinstance(spec, str) else list(spec)
        with self._lock:
            self._rules = rules
            self._hits.clear()
            self.fired.clear()

    def clear(self) -> None:
        self.install(())

    def _advance(self, site: str) -> List[ChaosRule]:
        with self._lock:
            if not self._rules:
                return []
            hit = self._hits[site] = self._hits.get(site, 0) + 1
            due = [r for r in self._rules if r.site == site and r.due(hit)]
            for rule in due:
                self.fired.append((site, rule.action, hit))
            return due

    def fire(self, site: str, sleeper=time.sleep) -> None:
        """Trigger any rules due at *site*.  ``kill`` never returns."""
        for rule in self._advance(site):
            if rule.action == "kill":
                os._exit(137)
            elif rule.action == "delay":
                sleeper(rule.value)
            elif rule.action == "drop":
                raise ChaosDrop(f"chaos: connection dropped at {site}")
            elif rule.action == "error":
                raise ChaosError(f"chaos: injected failure at {site}")


_CONTROLLER: Optional[ChaosController] = None
_CONTROLLER_LOCK = threading.Lock()


def controller() -> ChaosController:
    """The process-wide controller, created from ``ASTORE_CHAOS`` on
    first use (so spawned workers inherit faults through the env)."""
    global _CONTROLLER
    if _CONTROLLER is None:
        with _CONTROLLER_LOCK:
            if _CONTROLLER is None:
                _CONTROLLER = ChaosController(
                    parse_rules(os.environ.get(ENV_VAR, "")))
    return _CONTROLLER


def install_chaos(spec: Union[str, Sequence[ChaosRule]]) -> None:
    """Arm this process with *spec* (a spec string or rule list)."""
    controller().install(spec)


def clear_chaos() -> None:
    """Disarm every rule and reset hit counters."""
    controller().clear()


def chaos_fired() -> List[Tuple[str, str, int]]:
    """Every ``(site, action, hit)`` that has fired in this process."""
    return list(controller().fired)


def chaos_point(site: str) -> None:
    """A named fault-injection site.  No-op unless rules are armed."""
    controller().fire(site)


async def chaos_point_async(site: str) -> None:
    """:func:`chaos_point` for event-loop sites: delays use
    ``asyncio.sleep`` so an injected stall never blocks the loop."""
    import asyncio

    pending: List[float] = []
    controller().fire(site, sleeper=pending.append)
    for seconds in pending:
        await asyncio.sleep(seconds)
