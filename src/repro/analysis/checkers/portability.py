"""plan-portability: portable plan classes stay picklable."""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..framework import Checker
from ..loader import FUNC_NODES, ModuleSource, Project
from ..model import Finding

# Type names that are runtime handles: annotating a portable field with
# one of these means the object cannot cross a pickle boundary.
_BLOCKED_TYPE_NAMES = {
    "Callable",
    "socket",
    "Thread",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Popen",
    "Process",
    "Queue",
    "Pipe",
    "Connection",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "Future",
    "IO",
    "TextIO",
    "BinaryIO",
    "TextIOWrapper",
    "BufferedReader",
    "BufferedWriter",
    "FileIO",
    "StreamReader",
    "StreamWriter",
    "AbstractEventLoop",
}

# Modules whose members are runtime state; storing anything produced by
# them on a portable instance breaks pickling.
_BLOCKED_MODULES = {
    "threading",
    "socket",
    "subprocess",
    "multiprocessing",
    "asyncio",
    "selectors",
    "fcntl",
    "queue",
    "weakref",
    "contextvars",
}


class PlanPortabilityChecker(Checker):
    rule_id = "plan-portability"
    title = "classes marked __portable__ must not reach unpicklable state"
    contract = """
    A class carrying `__portable__ = True` (BoundQuery, OpSpec,
    LeafProducts, the bound-expression tree, ...) crosses process
    boundaries by pickle.  Its annotated fields may only reference
    portable classes, builtins/typing/numpy shapes — never runtime
    handles (Callable, Thread, Lock, socket, file objects) or project
    classes not themselves marked portable.  Methods of a portable
    class may not store lambdas, locally defined closures, or values
    produced by threading/socket/subprocess/asyncio/weakref on self.
    Fields popped in __getstate__ are exempt: they are runtime-only by
    declaration and never serialized.
    """
    prevents = """
    The contract that queries compile to picklable BoundQuery
    artifacts is what lets the process backend ship plans to its
    shard workers instead of SQL; one stray lambda on a spec breaks
    every backend beyond serial at once.
    """
    example_bad = """
    class LeafProducts:
        __portable__ = True
        probes: Dict[str, Callable[[np.ndarray], np.ndarray]]   # runtime handle
    """
    example_fix = """
    class LeafProducts:
        __portable__ = True
        probes: Dict[str, BoundExpression]   # data, rebuilt into a callable on arrival
    """

    def check(self, module: ModuleSource, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in project.portable:
                yield from self._check_class(module, project, node)

    def _check_class(
        self, module: ModuleSource, project: Project, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        exempt = _getstate_popped(cls)
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                if name in exempt:
                    continue
                for bad, why in _bad_type_names(stmt.annotation, project):
                    yield self.finding(
                        module,
                        stmt.lineno,
                        f"portable class {cls.name} field {name!r} is annotated "
                        f"with {bad!r} ({why}); mark {bad} __portable__ or pop "
                        f"the field in __getstate__",
                        symbol=f"{cls.name}.{name}",
                    )
        for func in cls.body:
            if not isinstance(func, FUNC_NODES):
                continue
            local_defs = {
                sub.name
                for sub in ast.walk(func)
                if isinstance(sub, FUNC_NODES) and sub is not func
            }
            for sub in ast.walk(func):
                value = None
                targets: List[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets, value = sub.targets, sub.value
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    if getattr(sub, "value", None) is None:
                        continue
                    targets, value = [sub.target], sub.value
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if target.attr in exempt:
                        continue
                    for why, bad_line in _bad_values(value, local_defs):
                        yield self.finding(
                            module,
                            bad_line,
                            f"portable class {cls.name} stores {why} on "
                            f"self.{target.attr}; portable instances must "
                            f"hold only picklable data (or pop the field in "
                            f"__getstate__)",
                            symbol=f"{cls.name}.{target.attr}",
                        )

    def explain_extra(self) -> str:  # pragma: no cover - doc helper
        return ", ".join(sorted(_BLOCKED_MODULES))


def _getstate_popped(cls: ast.ClassDef) -> Set[str]:
    """Field names removed from state in __getstate__ (runtime-only)."""
    popped: Set[str] = set()
    for func in cls.body:
        if isinstance(func, FUNC_NODES) and func.name == "__getstate__":
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    popped.add(str(node.args[0].value))
    return popped


def _bad_type_names(
    annotation: ast.expr, project: Project,
) -> Iterator[Tuple[str, str]]:
    for name in _annotation_names(annotation):
        if name in _BLOCKED_TYPE_NAMES:
            yield name, "a runtime handle that cannot pickle"
        elif name in project.class_index and name not in project.portable:
            yield name, "a project class not marked __portable__"


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    stack: List[ast.expr] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # forward reference: "BoundExpression"
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                yield node.value
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub is not node:
                    stack.append(sub)


def _bad_values(value: ast.expr, local_defs: Set[str]) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(value):
        if isinstance(node, ast.Lambda):
            yield "a lambda", node.lineno
        elif isinstance(node, ast.Name) and node.id in local_defs:
            yield f"the locally defined closure {node.id!r}", node.lineno
        elif isinstance(node, ast.Name) and node.id in _BLOCKED_MODULES:
            yield f"state produced by the {node.id!r} module", node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
        ):
            yield "an open file handle", node.lineno
