"""stamp-protocol: mutation buffers change only via stamped entry points."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..framework import Checker
from ..loader import ModuleSource, Project, enclosing_function
from ..model import Finding

# The per-table mutation state every cache/arena/fleet freshness check
# hangs off.  _mutation_count is itself a buffer: nobody outside the
# consecrated modules may forge a stamp either, nor rewrite the mutation
# journal that block summaries patch from.
BUFFER_ATTRS = {
    "_deleted",
    "_free_slots",
    "_insert_version",
    "_delete_version",
    "_nrows",
    "_mutation_count",
    "_journal",
}

# Method calls that mutate a buffer in place.
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "fill",
    "sort",
    "resize",
    "add",
    "update",
    "discard",
}

# Files whose job is mutating these buffers; inside them the rule flips
# to "every public entry point that writes buffers must bump the stamp".
_CONSECRATED_BASENAMES = {"table.py", "compaction.py"}

_EXEMPT_DECORATORS = {"classmethod", "staticmethod", "property"}


class StampProtocolChecker(Checker):
    rule_id = "stamp-protocol"
    title = "mutation buffers change only via entry points that bump the stamp"
    contract = """
    Every freshness decision in the system — the QueryCache tiers, the
    shared-memory fleet store, arena revalidation, remote StampLane
    fencing — compares (table, mutation_count) stamps.  The deletion /
    free-slot / MVCC-version / row-count buffers (and the stamp itself)
    may therefore only be written inside the consecrated mutation
    modules (core/table.py, core/compaction.py); and within those, any
    public entry point that writes a buffer must also bump
    _mutation_count before returning.  A write that skips the bump
    serves stale answers fleet-wide; a write outside the entry points
    bypasses MVCC versioning entirely.  Where the module keeps a
    mutation journal (a method writes _journal), every public entry
    point that bumps the stamp must also journal what it touched or
    barrier the journal: block summaries patch from the journal, and a
    bump it cannot account for would leave a patched summary stale
    under a fresh stamp.
    """
    prevents = """
    The stamp protocol is load-bearing since PR 3 (QueryCache), and
    doubly so since PR 6 (cross-process shared store) and PR 8 (remote
    stamp fencing).  PR 10's analyzer caught Table.add_column mutating
    row bookkeeping without a bump — a schema change every cache tier
    would have ignored.
    """
    example_bad = """
    def add_column(self, name, column):        # in core/table.py
        self.columns[name] = column
        self._nrows = len(column)              # buffer write, no bump
    """
    example_fix = """
    def add_column(self, name, column):
        self.columns[name] = column
        self._nrows = len(column)
        self._mutation_count += 1
    """

    def check(self, module: ModuleSource, project: Project) -> Iterator[Finding]:
        basename = module.relpath.rsplit("/", 1)[-1]
        if basename in _CONSECRATED_BASENAMES:
            yield from self._check_entry_points(module)
        else:
            yield from self._check_foreign_writes(module)

    def _check_foreign_writes(self, module: ModuleSource) -> Iterator[Finding]:
        for node, attr in _buffer_writes(module.tree):
            yield self.finding(
                module,
                node.lineno,
                f"direct write to mutation buffer {attr!r} outside the "
                f"consecrated entry points (core/table.py, "
                f"core/compaction.py); route this through a Table mutation "
                f"method so the stamp protocol sees it",
                symbol=attr,
            )

    def _check_entry_points(self, module: ModuleSource) -> Iterator[Finding]:
        yield from self._check_journaled(module)
        for func, writes in _writes_by_function(module.tree):
            if func is None:
                continue  # module-level statements
            if not _is_public_entry_point(func):
                continue
            written = sorted({attr for _, attr in writes})
            if written == ["_mutation_count"]:
                continue  # the bump itself
            if _bumps_stamp(func):
                continue
            yield self.finding(
                module,
                func.lineno,
                f"mutation entry point {func.name!r} writes "
                f"{', '.join(written)} but never bumps _mutation_count; "
                f"every cache tier and remote stamp fence will miss this "
                f"mutation",
                symbol=func.name,
            )

    def _check_journaled(self, module: ModuleSource) -> Iterator[Finding]:
        journaling = {
            func.name
            for func, writes in _writes_by_function(module.tree)
            if func is not None and any(attr == "_journal" for _, attr in writes)
        }
        if not journaling:
            return  # this module keeps no journal
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name in journaling or not _is_public_entry_point(func):
                continue
            if not _bumps_stamp(func) or _calls_self_method(func, journaling):
                continue
            yield self.finding(
                module,
                func.lineno,
                f"mutation entry point {func.name!r} bumps _mutation_count "
                f"but neither journals what it touched nor barriers the "
                f"journal; block summaries patched from the journal would "
                f"miss this mutation",
                symbol=func.name,
            )


def _calls_self_method(func: ast.AST, names: set) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            return True
    return False


def _buffer_writes(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in BUFFER_ATTRS
            ):
                yield node, func.value.attr
            continue
        for target in targets:
            attr = _buffer_target(target)
            if attr is not None:
                yield node, attr


def _buffer_target(target: ast.expr) -> Optional[str]:
    if isinstance(target, ast.Attribute) and target.attr in BUFFER_ATTRS:
        return target.attr
    if isinstance(target, ast.Subscript):
        value = target.value
        if isinstance(value, ast.Attribute) and value.attr in BUFFER_ATTRS:
            return value.attr
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            attr = _buffer_target(element)
            if attr is not None:
                return attr
    return None


def _writes_by_function(
    tree: ast.AST,
) -> Iterator[Tuple[Optional[ast.AST], List[Tuple[ast.AST, str]]]]:
    grouped: Dict[Optional[int], Tuple[Optional[ast.AST], List]] = {}
    for node, attr in _buffer_writes(tree):
        owner = enclosing_function(node)
        key = id(owner) if owner is not None else None
        grouped.setdefault(key, (owner, []))[1].append((node, attr))
    for owner, writes in grouped.values():
        yield owner, writes


def _is_public_entry_point(func: ast.AST) -> bool:
    name = getattr(func, "name", "_")
    if name.startswith("_"):
        return False
    for decorator in getattr(func, "decorator_list", []):
        root = decorator
        while isinstance(root, (ast.Attribute, ast.Call)):
            root = root.func if isinstance(root, ast.Call) else root.value
        if isinstance(root, ast.Name) and root.id in _EXEMPT_DECORATORS:
            return False
    return True


def _bumps_stamp(func: ast.AST) -> bool:
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "_mutation_count":
                return True
    return False
