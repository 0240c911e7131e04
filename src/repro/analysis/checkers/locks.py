"""lock-discipline: guarded state is only touched under its lock."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from ..framework import Checker
from ..loader import (
    ModuleSource,
    Project,
    enclosing_class,
    enclosing_function,
    held_context_exprs,
    in_branch_test,
)
from ..model import Finding

_CONSTRUCTORS = ("__init__", "__new__")


class LockDisciplineChecker(Checker):
    rule_id = "lock-discipline"
    title = "state declared in GUARDED_BY is only touched under its lock"
    contract = """
    A module declares its shared mutable state in a module-level
    GUARDED_BY dict mapping names ("_CACHES" for globals,
    "QueryCache._tiers" for instance attributes) to the lock expression
    that guards them ("_CACHES_LOCK", "self._lock").  Every read or
    write of a declared name must be lexically inside `with <lock>:` —
    or inside a function whose def line carries `# astore:
    holds[<lock>]`, documenting that its callers already hold it.
    Accesses in the test of an if/while are additionally labelled
    check-then-act, the race shape where the decision goes stale the
    moment the lock-free check completes.  `self.<attr>` writes inside
    __init__/__new__ are exempt: the object is not yet published.
    """
    prevents = """
    Three latent races of exactly this class were fixed by hand
    (result-tier aliasing, scratch-buffer aliasing under asyncio,
    shard-backend lifecycle races); the analyzer then caught an
    unlocked check-then-act on the cache registry.
    """
    example_bad = """
    GUARDED_BY = {"_CACHES": "_CACHES_LOCK"}

    def query_cache_for(db):
        cache = _CACHES.get(db)       # unguarded check ...
        if cache is None:
            cache = _CACHES[db] = QueryCache()   # ... then act
        return cache
    """
    example_fix = """
    def query_cache_for(db):
        with _CACHES_LOCK:
            cache = _CACHES.get(db)
            if cache is None:
                cache = _CACHES[db] = QueryCache()
            return cache
    """

    def check(self, module: ModuleSource, project: Project) -> Iterator[Finding]:
        bare: Dict[str, str] = dict(project.global_guarded)
        attr: Dict[str, str] = {}
        for key, lock in module.guarded_by.items():
            if "." in key:
                attr[key.split(".", 1)[1]] = lock
            else:
                bare[key] = lock
        if not bare and not attr:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name) and node.id in bare:
                yield from self._check_access(module, node, node.id, bare[node.id], base=None)
            elif isinstance(node, ast.Attribute):
                base = _unparse(node.value)
                if node.attr in attr:
                    yield from self._check_access(
                        module,
                        node,
                        f"{base}.{node.attr}",
                        attr[node.attr],
                        base=base,
                    )
                elif node.attr in bare and isinstance(node.value, (ast.Name, ast.Attribute)):
                    # qualified cross-module access, e.g. _sharding._BACKENDS
                    yield from self._check_access(
                        module, node, f"{base}.{node.attr}", bare[node.attr], base=base
                    )

    def _check_access(
        self,
        module: ModuleSource,
        node: ast.AST,
        symbol: str,
        lock: str,
        base: Optional[str],
    ) -> Iterator[Finding]:
        func = enclosing_function(node)
        if func is None:
            return  # module-level initialisation runs single-threaded at import
        if (
            base == "self"
            and func.name in _CONSTRUCTORS
            and enclosing_class(func) is not None
        ):
            return  # the object under construction is not yet published
        if _held(lock, base, held_context_exprs(node, module)):
            return
        message = f"{symbol} is declared guarded by {lock!r} but is accessed outside it"
        if in_branch_test(node):
            message += " (check-then-act: a decision is taken on unguarded state)"
        yield self.finding(module, node.lineno, message, symbol=symbol)


def _held(lock: str, base: Optional[str], held: Set[str]) -> bool:
    if lock.startswith("self."):
        attr = lock[len("self.") :]
        owner = base if base else "self"
        return f"{owner}.{attr}" in held or lock in held
    return any(expr == lock or expr.endswith("." + lock) for expr in held)


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return "<expr>"
