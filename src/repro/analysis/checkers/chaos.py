"""chaos-coverage: every network I/O path passes a chaos site."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..framework import Checker
from ..loader import FUNC_NODES, ModuleSource, Project, ancestors
from ..model import Finding

# Modules forming the network surface the chaos harness must dominate.
_TARGET_BASENAMES = {"serve.py"}

# Raw I/O operations (socket / pipe / fd-handoff) that must only be
# reachable through chaos-covered code.
_RAW_METHOD_ATTRS = {
    "send",
    "sendall",
    "sendto",
    "recv",
    "recvfrom",
    "recv_into",
    "connect",
    "connect_ex",
    "send_handle",
    "recv_handle",
}
_RAW_FUNC_NAMES = {"create_connection"}

_CHAOS_CALLS = {"chaos_point", "chaos_point_async"}


class ChaosCoverageChecker(Checker):
    rule_id = "chaos-coverage"
    title = "network I/O is dominated by a chaos_point site"
    contract = """
    The deterministic chaos harness (ASTORE_CHAOS=kill|delay|drop|
    error@site) can only exercise failure paths that pass through a
    chaos_point()/chaos_point_async() call.  In the network module
    (engine/serve.py — or any module declaring CHAOS_SCOPE = True),
    every raw socket / pipe / fd-handoff operation (send*/recv*/connect/
    create_connection/send_handle/recv_handle) must sit in a function
    that contains a chaos site or calls a chaos-bearing helper, or be
    reachable only through callers that are covered.  Frame helpers
    taking a `site` parameter (send_frame/recv_frame) only extend
    coverage to call sites that actually pass one — a site-less frame
    call is statically chaos-bearing but dynamically dead.
    """
    prevents = """
    The harness pins the serve layer's failure paths (request deadline,
    overload shedding) in tests; a raw I/O call outside a chaos site
    silently shrinks that coverage — the path exists in production but
    no test can inject its failure.
    """
    example_bad = """
    def _forward(address, line):
        with socket.create_connection(address) as sock:   # no site
            sock.sendall(line)
            return sock.recv(4096)
    """
    example_fix = """
    def _forward(address, line):
        chaos_point("serve.request")
        with socket.create_connection(address) as sock:
            sock.sendall(line)
            return sock.recv(4096)
    """

    def check(self, module: ModuleSource, project: Project) -> Iterator[Finding]:
        if not self._applies(module):
            return
        graph = _FunctionGraph(module)
        covered = graph.covered_functions()
        for func_id, info in graph.functions.items():
            if func_id in covered:
                continue
            for node, op in info.raw_ops:
                yield self.finding(
                    module,
                    node.lineno,
                    f"raw I/O operation {op!r} in {info.qualname!r} is not "
                    f"dominated by a chaos_point site (neither this function "
                    f"nor all of its callers have one); add a site or route "
                    f"through a covered helper so the chaos harness can "
                    f"reach this path",
                    symbol=info.qualname,
                )
        for node, op in graph.module_level_raw_ops:
            yield self.finding(
                module,
                node.lineno,
                f"raw I/O operation {op!r} at module level can never be "
                f"chaos-covered; move it into a function with a chaos_point",
                symbol=op,
            )

    @staticmethod
    def _applies(module: ModuleSource) -> bool:
        basename = module.relpath.rsplit("/", 1)[-1]
        if basename in _TARGET_BASENAMES and "analysis/" not in module.relpath:
            return True
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "CHAOS_SCOPE":
                        return bool(isinstance(node.value, ast.Constant) and node.value.value)
        return False


class _FuncInfo:
    __slots__ = ("node", "qualname", "has_chaos", "site_param", "raw_ops", "callers")

    def __init__(self, node: ast.AST, qualname: str):
        self.node = node
        self.qualname = qualname
        self.has_chaos = False
        self.site_param = False
        self.raw_ops: List[Tuple[ast.AST, str]] = []
        self.callers: Set[int] = set()


class _FunctionGraph:
    """Name-based caller graph over one module's functions.

    An edge ``G -> F`` exists when G's body mentions F's name (a call,
    a Thread target, an add_reader callback, ...) or when F is
    lexically nested inside G (the closure runs on G's behalf).  A
    function is *covered* when it contains a chaos site, calls a
    chaos-bearing helper (passing a site, if the helper takes one), or
    has callers that are all covered — domination, not reachability.
    """

    def __init__(self, module: ModuleSource):
        self.module = module
        self.functions: Dict[int, _FuncInfo] = {}
        self.by_name: Dict[str, List[int]] = {}
        self.module_level_raw_ops: List[Tuple[ast.AST, str]] = []
        self._collect()
        self._link()

    def _collect(self) -> None:
        for node in ast.walk(self.module.tree):
            if isinstance(node, FUNC_NODES):
                info = _FuncInfo(node, self._qualname(node))
                info.site_param = "site" in {
                    arg.arg for arg in node.args.args + node.args.kwonlyargs
                }
                self.functions[id(node)] = info
                self.by_name.setdefault(node.name, []).append(id(node))
        for node in ast.walk(self.module.tree):
            owner = self._owner(node)
            if isinstance(node, ast.Call) and _call_name(node) in _CHAOS_CALLS:
                if owner is not None:
                    self.functions[id(owner)].has_chaos = True
            op = _raw_op(node)
            if op is not None:
                if owner is None:
                    self.module_level_raw_ops.append((node, op))
                else:
                    self.functions[id(owner)].raw_ops.append((node, op))

    def _link(self) -> None:
        for func_id, info in self.functions.items():
            owner = self._owner(info.node)
            if owner is not None:
                info.callers.add(id(owner))
        for func_id, info in self.functions.items():
            for node in ast.walk(info.node):
                if node is info.node:
                    continue
                name = _mention_name(node)
                if name is None or name == getattr(info.node, "name", None):
                    continue
                for callee_id in self.by_name.get(name, []):
                    self.functions[callee_id].callers.add(func_id)

    def covered_functions(self) -> Set[int]:
        covered: Set[int] = set()
        for func_id, info in self.functions.items():
            if info.has_chaos or self._calls_covering_helper(info):
                covered.add(func_id)
        changed = True
        while changed:
            changed = False
            for func_id, info in self.functions.items():
                if func_id in covered:
                    continue
                if info.callers and all(c in covered for c in info.callers):
                    covered.add(func_id)
                    changed = True
        return covered

    def _calls_covering_helper(self, info: _FuncInfo) -> bool:
        """True when *info* calls a chaos-bearing helper such that the
        helper's site actually fires on this path."""
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            for callee_id in self.by_name.get(name, []):
                callee = self.functions[callee_id]
                if not callee.has_chaos:
                    continue
                if callee.site_param and not _call_has_site_arg(node, callee):
                    continue
                return True
        return False

    def _owner(self, node: ast.AST) -> Optional[ast.AST]:
        for anc in ancestors(node):
            if isinstance(anc, FUNC_NODES):
                return anc
        return None

    def _qualname(self, node: ast.AST) -> str:
        parts = [getattr(node, "name", "<anon>")]
        for anc in ancestors(node):
            if isinstance(anc, (ast.ClassDef,) + FUNC_NODES):
                parts.append(anc.name)
        return ".".join(reversed(parts))


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _mention_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call_has_site_arg(node: ast.Call, info: _FuncInfo) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "site":
            return True
    positional = [arg.arg for arg in info.node.args.args]
    if "site" in positional and len(node.args) > positional.index("site"):
        return True
    return False


def _raw_op(node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _RAW_METHOD_ATTRS:
        return func.attr
    name = _call_name(node)
    if name in _RAW_FUNC_NAMES:
        return name
    return None
