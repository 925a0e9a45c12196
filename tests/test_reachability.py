"""Reachability census: nothing under ``src/repro`` lives only for its tests.

An import-resolved ``ast`` pass (stdlib only; reads no option and no
environment variable) over every module of the package.

* **Nodes** — every module-level def / class / UPPER constant, every
  method and property, and every ``__all__`` entry.
* **Edges** — references resolved through the imports in scope
  (``from x import y``, ``mod.attr``, bare names of the defining
  module).  An attribute access on an object the pass cannot type keeps
  every method of that name alive on every live class, and every
  top-level def of that name in a module that is itself handed around
  as a value (``for module in (fig1, fig2): module.jobs``).
* **Roots** — module-level executable statements (the ``EXPERIMENTS`` /
  ``FAMILIES`` / ``ABLATIONS`` tables are reached through the CLI that
  reads them; decorators and ``__main__`` blocks run on import);
  ``setup.py``'s console scripts; strings shaped ``"repro.mod:name"``
  (executor addresses); identifier strings inside ``TIME_STATE``
  declarations (``exact=`` method names); dunders, and overrides of a
  base class from outside the package; and every ``*.py`` of the
  read-only consumers in :data:`CONSUMERS`.

Tests and ``__init__`` re-exports are *not* roots.  Reachability is
transitive, so a cluster that only references itself is named whole
(a dead class stands for its methods).  The guard fails naming
``file:line symbol`` for every unreachable node that is not in
:data:`ALLOWED`, for every ``__all__`` entry its module does not bind,
and for every :data:`ALLOWED` entry that no longer exists or has become
reachable — so the list cannot rot.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Read-only consumers of the package: whatever they name is live.
CONSUMERS = ("examples", "benchmarks/suite")

#: ``symbol -> reason``: unreachable from the roots, kept on purpose.
#: At this commit the list *is* the census of the parent's tree: the
#: guard is green on unchanged code, and each later commit deletes one
#: cluster together with the tests that exist only for it.
_FIXTURE = "fixture by design: an executor the fault-plan tests address by string"
_GOES = "census: reached only by its own tests"
ALLOWED: Dict[str, str] = {
    "campaign/faults.py::echo": _FIXTURE,
    "campaign/faults.py::fail_until": _FIXTURE,
    "campaign/faults.py::unpicklable_result": _FIXTURE,
    "campaign/queue.py::spool_drained": (
        "the spool protocol's post-condition, asserted by tests/test_spool.py"
    ),
    "core/token_bucket.py::TokenBucket.fill": (
        "reference implementation: TbrScheduler._fill_event inlines it "
        "'in lockstep' and tests/test_core_token_bucket.py holds the two equal"
    ),
    "transport/stats.py::FlowStats.mean_delay_us": (
        "paper-claim observation point: Section 2.1's per-packet latency, "
        "tests/test_latency.py"
    ),
    "transport/stats.py::FlowStats.delay_percentile_us": (
        "paper-claim observation point: Section 2.1's per-packet latency, "
        "tests/test_latency.py"
    ),
    "sim/kernel.py::Simulator.pending_count": (
        "side-effect-free accessor several test files observe the heap with"
    ),
    "mac/dcf.py::DcfMac.busy_with_frame": (
        "side-effect-free accessor several test files observe the MAC with"
    ),
    "core/tbr.py::TbrScheduler.token_rate": (
        "side-effect-free accessor several test files observe TBR with"
    ),
    "queueing/base.py::ApScheduler.is_associated": (
        "side-effect-free accessor several test files observe membership with"
    ),
}

#: Outside bases that call ``prefix + <something>`` methods by name.
NAME_DISPATCH = {BaseHTTPRequestHandler: "do_"}

_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
_ADDRESS = re.compile(r"([A-Za-z_][\w.]*):([A-Za-z_]\w*)")
_SCRIPT = re.compile(r"[\w-]+\s*=\s*([\w.]+:\w+)")

Key = Tuple[str, str]  # (dotted module, qualified name inside it)
#: ("node", Key) | ("attr", name) | ("escape", module): what a body
#: touches — a symbol, an attribute of something untyped, or a module
#: used as a value.
Ref = Tuple[str, object]
Imports = Dict[str, Tuple[str, Optional[str]]]  # local -> (module, symbol)


@dataclass
class Node:
    key: Key
    kind: str  # "def" | "class" | "constant" | "method"
    path: Path
    line: int
    body: List[ast.AST] = field(default_factory=list)
    bases: List[ast.expr] = field(default_factory=list)
    refs: Set[Ref] = field(default_factory=set)

    @property
    def owner(self) -> Key:
        """The class a method belongs to."""
        return (self.key[0], self.key[1].rpartition(".")[0])

    @property
    def name(self) -> str:
        return self.key[1].rpartition(".")[2]


@dataclass
class Module:
    name: str
    path: Path
    tree: ast.Module
    package: str  # what a relative import is relative to
    imports: Imports
    bound: Set[str] = field(default_factory=set)  # module-level names
    exported: List[Tuple[str, int]] = field(default_factory=list)
    executable: List[ast.AST] = field(default_factory=list)


@dataclass
class Census:
    base: Path
    nodes: Dict[Key, Node]
    alive: Set[Key]
    exports: int
    stale_exports: List[str]

    @property
    def visited(self) -> int:
        return len(self.nodes) + self.exports

    def label(self, node: Node) -> str:
        return f"{node.path.relative_to(self.base).as_posix()}::{node.key[1]}"

    def unreachable(self) -> Dict[str, Node]:
        """``label -> node``; a dead class stands for its methods."""
        return {
            self.label(node): node
            for key, node in self.nodes.items()
            if key not in self.alive
            and not (node.kind == "method" and node.owner not in self.alive)
        }

    def unlisted(self, allowed: Dict[str, str]) -> List[str]:
        """One ``file:line symbol`` line per finding not allow-listed."""
        return [
            f"{node.path.relative_to(self.base).as_posix()}:{node.line} "
            f"{node.key[1]} is reachable from no root"
            for label, node in sorted(self.unreachable().items())
            if label not in allowed
        ] + self.stale_exports

    def rotted(self, allowed: Dict[str, str]) -> List[str]:
        """Allow-list entries that are gone or have become reachable."""
        every = {self.label(node) for node in self.nodes.values()}
        dead = self.unreachable()
        return [
            f"ALLOWED names {label}, which "
            + ("is reachable" if label in every else "no longer exists")
            for label in sorted(allowed)
            if label not in dead
        ]


# ----------------------------------------------------------------------
# loading: modules, their imports, their nodes
# ----------------------------------------------------------------------
def _imports_below(tree: ast.AST, package: str) -> Imports:
    found: Imports = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    found[alias.asname] = (alias.name, None)
                else:  # ``import a.b`` binds ``a``
                    top = alias.name.partition(".")[0]
                    found[top] = (top, None)
        elif isinstance(stmt, ast.ImportFrom):
            source = stmt.module or ""
            if stmt.level:
                parts = package.split(".")
                parts = parts[: len(parts) - (stmt.level - 1)]
                source = ".".join(parts + ([source] if source else []))
            for alias in stmt.names:
                found[alias.asname or alias.name] = (source, alias.name)
    return found


def _load(name: str, path: Path, package: str) -> Module:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return Module(name, path, tree, package, _imports_below(tree, package))


def _package_modules(src: Path, package: str) -> Dict[str, Module]:
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            name = within = ".".join(parts)
        else:
            name, within = ".".join(parts), ".".join(parts[:-1])
        modules[name] = _load(name, path, within)
    return modules


def _assigned_name(stmt: ast.AST) -> Optional[str]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _strings(tree: ast.AST) -> List[ast.Constant]:
    return [
        leaf
        for leaf in ast.walk(tree)
        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
    ]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _collect(module: Module, nodes: Dict[Key, Node]) -> None:
    """Split a module's top level into nodes and executable statements."""

    def add(qualname: str, kind: str, stmt: ast.stmt) -> Node:
        key = (module.name, qualname)
        return nodes.setdefault(key, Node(key, kind, module.path, stmt.lineno))

    def code(stmt) -> List[ast.AST]:
        return [stmt.args, *stmt.body, *filter(None, [stmt.returns])]

    for stmt in module.tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            module.bound.update(
                (alias.asname or alias.name).partition(".")[0]
                for alias in stmt.names
            )
        elif isinstance(stmt, _DEFS):
            module.bound.add(stmt.name)
            module.executable += stmt.decorator_list
            add(stmt.name, "def", stmt).body += code(stmt)
        elif isinstance(stmt, ast.ClassDef):
            module.bound.add(stmt.name)
            module.executable += stmt.decorator_list
            owner = add(stmt.name, "class", stmt)
            owner.bases += stmt.bases
            owner.body += [*stmt.bases, *stmt.keywords]
            for inner in stmt.body:
                if isinstance(inner, _DEFS):
                    owner.body += inner.decorator_list
                    method = add(f"{stmt.name}.{inner.name}", "method", inner)
                    method.body += code(inner)
                else:
                    owner.body.append(inner)
        elif _assigned_name(stmt) == "__all__":
            module.exported = [(s.value, s.lineno) for s in _strings(stmt)]
        else:
            module.bound.update(
                target.id
                for target in ast.walk(stmt)
                if isinstance(target, ast.Name)
                and isinstance(target.ctx, ast.Store)
            )
            name = _assigned_name(stmt)
            if name is not None and _CONSTANT.fullmatch(name):
                add(name, "constant", stmt).body.append(stmt)
            else:
                module.executable.append(stmt)


# ----------------------------------------------------------------------
# resolving references
# ----------------------------------------------------------------------
_OUTSIDE = ("outside", None)  # a name imported from another distribution


class _Resolver:
    def __init__(self, top: str, modules: Dict[str, Module],
                 nodes: Dict[Key, Node]):
        self.top = top
        self.modules = modules
        self.nodes = nodes

    def imported(self, source: str, symbol: Optional[str], depth: int = 0):
        if source.partition(".")[0] != self.top:
            return _OUTSIDE
        if symbol is None:
            return ("module", source) if source in self.modules else None
        return self.symbol(source, symbol, depth + 1)

    def symbol(self, module: str, name: str, depth: int = 0):
        """``module.name`` as ("node", key) | ("module", name) | None."""
        if module not in self.modules or depth > 20:
            return None
        if (module, name) in self.nodes:
            return ("node", (module, name))
        found = self.modules[module].imports.get(name)
        if (
            found is not None
            and found != (module, name)  # ``from package import submodule``
            and name in self.modules[module].bound
        ):
            return self.imported(*found, depth)
        if f"{module}.{name}" in self.modules:
            return ("module", f"{module}.{name}")
        return None

    def address(self, text: str) -> Optional[Key]:
        """The node a ``"package.module:name"`` string names, if any."""
        match = _ADDRESS.fullmatch(text)
        key = match and (match.group(1), match.group(2))
        return key if key in self.nodes else None

    def refs(self, module: Module, trees: List[ast.AST],
             local_imports: bool = True) -> Set[Ref]:
        """Every reference the given subtrees of ``module`` make."""
        out: Set[Ref] = set()
        imports = dict(module.imports)
        if local_imports:  # a function's own imports shadow the module's
            for tree in trees:
                imports.update(_imports_below(tree, module.package))

        def lookup(name: str):
            if (module.name, name) in self.nodes:
                return ("node", (module.name, name))
            found = imports.get(name)
            return None if found is None else self.imported(*found)

        def typed(expr: ast.AST):
            """Resolve a dotted chain, recording what it touches."""
            if isinstance(expr, ast.Name):
                found = lookup(expr.id)
            elif isinstance(expr, ast.Attribute):
                base = typed(expr.value)
                if base == _OUTSIDE:
                    return _OUTSIDE
                if base is not None and base[0] == "module":
                    found = self.symbol(base[1], expr.attr)
                else:
                    found = None
                    if base is not None and self.nodes[base[1]].kind == "class":
                        key = (base[1][0], f"{base[1][1]}.{expr.attr}")
                        found = ("node", key) if key in self.nodes else None
                    if found is None:
                        out.add(("attr", expr.attr))
            else:
                visit(expr)
                return None
            if found is not None and found[0] == "node":
                out.add(found)
            return found

        def visit(tree: ast.AST) -> None:
            if isinstance(tree, (ast.Name, ast.Attribute)):
                found = typed(tree)
                if found is not None and found[0] == "module":
                    out.add(("escape", found[1]))
                return
            if isinstance(tree, ast.Constant) and isinstance(tree.value, str):
                key = self.address(tree.value)
                if key is not None:
                    out.add(("node", key))
            elif isinstance(tree, ast.Call) and (
                isinstance(tree.func, ast.Name)
                and tree.func.id in ("getattr", "hasattr", "setattr")
                and len(tree.args) >= 2
            ):
                out.update(("attr", s.value) for s in _strings(tree.args[1]))
            elif _assigned_name(tree) == "TIME_STATE":
                out.update(
                    ("attr", s.value)
                    for s in _strings(tree)
                    if s.value.isidentifier()
                )
            for child in ast.iter_child_nodes(tree):
                visit(child)

        for tree in trees:
            visit(tree)
        return out

    def outside_bases(self, key: Key, _seen=()) -> List[type]:
        """The classes from outside the package that ``key`` inherits."""
        node, module = self.nodes[key], self.modules[key[0]]
        found: List[type] = []
        for base in node.bases:
            for kind, target in self.refs(module, [base]):
                if kind == "node" and self.nodes[target].kind == "class":
                    if target not in _seen:
                        found += self.outside_bases(target, (*_seen, key))
            chain: List[str] = []
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if not isinstance(base, ast.Name) or (key[0], base.id) in self.nodes:
                continue
            source, symbol = module.imports.get(base.id, ("builtins", base.id))
            if source.partition(".")[0] == self.top:
                continue
            try:
                obj = importlib.import_module(source)
            except ImportError:
                continue
            for attr in filter(None, [symbol, *reversed(chain)]):
                obj = getattr(obj, attr, None)
            if isinstance(obj, type) and obj is not object:
                found.append(obj)
        return found


def _overrides(name: str, bases: List[type]) -> bool:
    return any(
        hasattr(base, name)
        or any(
            issubclass(base, dispatcher) and name.startswith(prefix)
            for dispatcher, prefix in NAME_DISPATCH.items()
        )
        for base in bases
    )


# ----------------------------------------------------------------------
# the census
# ----------------------------------------------------------------------
def census(src: Path, package: str, consumers: Iterable[Path] = ()) -> Census:
    """Walk ``src/package`` and mark what the roots reach."""
    modules = _package_modules(src, package)
    nodes: Dict[Key, Node] = {}
    for module in modules.values():
        _collect(module, nodes)
    resolver = _Resolver(package, modules, nodes)
    for node in nodes.values():
        node.refs = resolver.refs(modules[node.key[0]], node.body)

    work: List[Ref] = []
    for module in modules.values():
        work += resolver.refs(module, module.executable, local_imports=False)
    for path in consumers:
        if path.name == "setup.py":
            scripts = _SCRIPT.findall(path.read_text(encoding="utf-8"))
            work += [("node", resolver.address(s)) for s in scripts]
        else:
            outsider = _load(f"<{path.name}>", path, "")
            work += resolver.refs(outsider, [outsider.tree], local_imports=False)

    methods: Dict[Key, List[Node]] = {}
    named: Dict[str, List[Node]] = {}
    for node in nodes.values():
        if node.kind == "method":
            methods.setdefault(node.owner, []).append(node)
        named.setdefault(node.name, []).append(node)

    alive: Set[Key] = set()
    wanted: Set[str] = set()  # attribute names asked of untyped objects
    escaped: Set[str] = set()  # modules handed around as values

    def reached_by_name(node: Node) -> bool:
        if node.kind == "method":
            return node.owner in alive
        return node.key[0] in escaped

    while work:
        kind, target = work.pop()
        if kind == "attr" and target not in wanted:
            wanted.add(target)
            work += [
                ("node", node.key)
                for node in named.get(target, ())
                if reached_by_name(node)
            ]
        elif kind == "escape" and target not in escaped:
            escaped.add(target)
            work += [
                ("node", node.key)
                for node in nodes.values()
                if node.key[0] == target
                and node.kind != "method"
                and node.name in wanted
            ]
        elif kind == "node" and target is not None and target not in alive:
            alive.add(target)
            node = nodes[target]
            work += node.refs
            if node.kind == "method":
                work.append(("node", node.owner))
            elif node.kind == "class":
                bases = resolver.outside_bases(target)
                work += [
                    ("node", method.key)
                    for method in methods.get(target, ())
                    if method.name in wanted
                    or (method.name[:2] == "__" == method.name[-2:])
                    or _overrides(method.name, bases)
                ]

    exports = [
        (module, name, line)
        for module in modules.values()
        for name, line in module.exported
    ]
    stale = [
        f"{module.path.relative_to(src / package).as_posix()}:{line} "
        f"__all__ names {name!r}, which the module does not bind"
        for module, name, line in exports
        if name not in module.bound
    ]
    return Census(src / package, nodes, alive, len(exports), stale)


# ----------------------------------------------------------------------
# the guard
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def real() -> Census:
    consumers = [ROOT / "setup.py"]
    for folder in CONSUMERS:
        consumers += sorted((ROOT / folder).glob("*.py"))
    return census(ROOT / "src", "repro", consumers)


def test_nothing_under_src_lives_only_for_its_tests(real):
    findings = real.unlisted(ALLOWED)
    assert not findings, "\n" + "\n".join(findings)


def test_walk_is_not_empty_and_the_allow_list_has_not_rotted(real):
    assert real.visited > 1000, real.visited
    for anchor in (
        ("repro.cli", "main"),  # setup.py's console script
        ("repro.scenario.runner", "execute_scenario"),  # an executor string
        ("repro.sim.kernel", "Simulator.heap_compactions"),  # the suite
        ("repro.serve", "_Handler.do_POST"),  # http.server calls it by name
        ("repro.core.token_bucket", "TokenBucket.fill_skipped"),  # TIME_STATE
    ):
        assert anchor in real.alive, anchor
    rotted = real.rotted(ALLOWED)
    assert not rotted, "\n" + "\n".join(rotted)


PLANTED = {
    "__init__.py": """
        from pkg.live import used, Worker
        from pkg.dead import Ping, Pong
        __all__ = ["used", "Worker", "Ping", "Pong", "vanished"]
    """,
    "__main__.py": """
        from pkg.live import used, Worker
        used()
        Worker().start()
    """,
    "live.py": """
        import threading

        EXECUTOR = "pkg.live:by_address"

        def used():
            return EXECUTOR

        def by_address(params):
            return params

        class Worker(threading.Thread):
            def run(self):
                pass

            def idle(self):
                pass
    """,
    "dead.py": """
        class Ping:
            def serve(self):
                return Pong().serve()

        class Pong:
            def serve(self):
                return Ping().serve()
    """,
}


def test_guard_names_exactly_the_dead_cluster_and_the_stale_export(tmp_path):
    for name, text in PLANTED.items():
        path = tmp_path / "pkg" / name
        path.parent.mkdir(exist_ok=True)
        lines = text.strip("\n").splitlines()
        indent = len(lines[0]) - len(lines[0].lstrip())
        path.write_text("\n".join(line[indent:] for line in lines) + "\n")
    planted = census(tmp_path, "pkg")
    assert planted.unlisted({}) == [
        "dead.py:1 Ping is reachable from no root",
        "dead.py:5 Pong is reachable from no root",
        "live.py:15 Worker.idle is reachable from no root",
        "__init__.py:3 __all__ names 'vanished', which the module does not bind",
    ]
    assert planted.rotted({"dead.py::Ping": "", "live.py::used": "", "x.py::y": ""}) == [
        "ALLOWED names live.py::used, which is reachable",
        "ALLOWED names x.py::y, which no longer exists",
    ]
