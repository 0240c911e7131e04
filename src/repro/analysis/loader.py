"""Source loading and shared AST infrastructure.

Every checker consumes :class:`ModuleSource` (one parsed file: tree
with parent links, ``# astore: ...`` marker comments, the module's
``GUARDED_BY`` declaration) and :class:`Project` (the scanned file set
plus cross-module indexes: class definitions, portable classes, and
globally guarded names).

Marker grammar, scanned per physical line:

``# astore: ignore[rule-id]``
    suppress findings of that rule anchored to this line
    (``ignore[*]`` suppresses every rule);
``# astore: holds[lock-expr]``
    on a ``def`` signature line: the function is documented to run with
    *lock-expr* already held by the caller, so guarded accesses inside
    it are considered covered.

Guarded state is declared in a module-level dict of string constants::

    GUARDED_BY = {
        "_CACHES": "_CACHES_LOCK",                  # module global
        "QueryCache._tiers": "self._lock",          # instance attribute
    }
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

_MARKER = re.compile(r"#\s*astore:\s*(ignore|holds)\[([^\]]+)\]")
_PARENT = "_astore_parent"

FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class ModuleSource:
    """One parsed source file with the metadata checkers need."""

    def __init__(self, path: Path, root: Path):
        self.path = Path(path)
        self.root = Path(root)
        try:
            self.relpath = self.path.relative_to(self.root).as_posix()
        except ValueError:
            self.relpath = self.path.name
        self.text = self.path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(self.path))
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                setattr(child, _PARENT, node)
        self.suppressions: Dict[int, Set[str]] = {}
        self.holds_lines: Dict[int, List[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            for kind, body in _MARKER.findall(line):
                names = [part.strip() for part in body.split(",") if part.strip()]
                if kind == "ignore":
                    self.suppressions.setdefault(lineno, set()).update(names)
                else:
                    self.holds_lines.setdefault(lineno, []).extend(names)
        self.guarded_by = self._extract_guarded()

    def _extract_guarded(self) -> Dict[str, str]:
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "GUARDED_BY"
                    and isinstance(value, ast.Dict)
                ):
                    out: Dict[str, str] = {}
                    for key, val in zip(value.keys, value.values):
                        if isinstance(key, ast.Constant) and isinstance(
                            val, ast.Constant,
                        ):
                            out[str(key.value)] = str(val.value)
                    return out
        return {}

    def suppressed(self, lineno: int, rule: str) -> bool:
        rules = self.suppressions.get(lineno)
        return bool(rules) and (rule in rules or "*" in rules)

    def line_text(self, lineno: int) -> str:
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def holds_for(self, func: ast.AST) -> List[str]:
        """Lock expressions declared held on *func*'s signature lines."""
        body = getattr(func, "body", None)
        start = getattr(func, "lineno", 0)
        end = body[0].lineno if body else start
        out: List[str] = []
        for lineno in range(start, end + 1):
            out.extend(self.holds_lines.get(lineno, []))
        return out


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, _PARENT, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    cur = parent(node)
    while cur is not None:
        yield cur
        cur = parent(cur)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    for anc in ancestors(node):
        if isinstance(anc, FUNC_NODES):
            return anc
    return None


def enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    for anc in ancestors(node):
        if isinstance(anc, ast.ClassDef):
            return anc
        if isinstance(anc, FUNC_NODES) and enclosing_function(node) is not anc:
            break
    return None


def in_branch_test(node: ast.AST) -> bool:
    """True when *node* sits inside the test of an if/while/ternary."""
    prev: ast.AST = node
    for anc in ancestors(node):
        if isinstance(anc, (ast.If, ast.While, ast.IfExp)) and prev is anc.test:
            return True
        if isinstance(anc, FUNC_NODES):
            return False
        prev = anc
    return False


def local_aliases(func: ast.AST) -> Dict[str, str]:
    """Map simple local names to the unparsed expression assigned to them."""
    out: Dict[str, str] = {}
    for stmt in ast.walk(func):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            out[stmt.targets[0].id] = ast.unparse(stmt.value)
    return out


def held_context_exprs(node: ast.AST, module: ModuleSource) -> Set[str]:
    """Context expressions held at *node*: enclosing ``with`` statements
    within the innermost function (a ``with`` in an outer frame is not
    held when a nested function later runs), plus the function's
    ``astore: holds[...]`` declarations, with one round of local-alias
    expansion so ``lock = self._lock; with lock:`` still matches.
    """
    held: Set[str] = set()
    for anc in ancestors(node):
        if isinstance(anc, FUNC_NODES):
            break
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            for item in anc.items:
                held.add(ast.unparse(item.context_expr))
    func = enclosing_function(node)
    if func is not None:
        held.update(module.holds_for(func))
        aliases = local_aliases(func)
        for expr in list(held):
            if expr in aliases:
                held.add(aliases[expr])
    return held


class Project:
    """The scanned file set plus cross-module indexes."""

    def __init__(self, root: Path, modules: List[ModuleSource]):
        self.root = Path(root)
        self.modules = modules
        self.class_index: Dict[str, Tuple[ModuleSource, ast.ClassDef]] = {}
        self.portable: Set[str] = set()
        self.global_guarded: Dict[str, str] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self.class_index.setdefault(node.name, (module, node))
                    if _is_portable(node):
                        self.portable.add(node.name)
            for key, lock in module.guarded_by.items():
                if "." not in key:
                    self.global_guarded[key] = lock

    @classmethod
    def load(cls, root: Path) -> "Project":
        root = Path(root).resolve()
        if root.is_file():
            files, base = [root], root.parent
        else:
            files, base = sorted(root.rglob("*.py")), root
        modules = [ModuleSource(path, base) for path in files]
        return cls(base, modules)


def _is_portable(cls_node: ast.ClassDef) -> bool:
    for stmt in cls_node.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__portable__":
                return bool(isinstance(value, ast.Constant) and value.value)
    return False
