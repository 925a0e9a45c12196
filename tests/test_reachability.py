"""Reachability census: nothing under ``src/repro`` lives only for its tests.

An import-resolved ``ast`` pass (stdlib only; no option, no environment
variable) over every module of the package.

* **Nodes** — every module-level def / class / UPPER constant, every
  method and property, every ``__all__`` entry.
* **Edges** — references resolved through the imports in scope
  (``from x import y``, ``mod.attr``, bare names of the defining
  module).  An attribute access on an object the pass cannot type keeps
  every method of that name alive on every live class, and every
  top-level def of that name in a module that is itself handed around
  as a value (``for module in (fig1, fig2): module.jobs``).
* **Roots** — module-level executable statements (tables, decorators,
  ``__main__`` blocks); strings shaped ``"repro.mod:name"`` (executor
  addresses, ``setup.py``'s console script); identifier strings inside
  ``TIME_STATE`` declarations (``exact=`` method names); dunders, and
  the methods of a class with a base from outside the package (whose
  code may call any of them: ``Thread.run``, ``do_GET``); ``setup.py``
  and every ``*.py`` of the read-only consumers in :data:`CONSUMERS`.

Tests and ``__init__`` re-exports are *not* roots.  Reachability is
transitive, so a cluster that only references itself is named whole (a
dead class stands for its methods).  The guard fails naming
``file:line symbol`` for every unreachable node not in :data:`ALLOWED`,
every ``__all__`` entry its module does not bind, and every
:data:`ALLOWED` entry that is gone or reachable: the list cannot rot.

Two more rules walk the same parse, with no allow-list:

* **write-only state** — an attribute the package stores on ``self``
  that nothing loads (``x.attr``) in the package, its consumers or
  ``tests/``, and that no string names (``TIME_STATE``, ``getattr``);
* **unused imports** — a module-level import that a non-``__init__``
  module of the package, or a file under ``tests/``, never uses.  String
  annotations and ``__all__`` count as uses; a ``# noqa: F401`` line is
  a deliberate re-export, and ``from __future__`` is exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from textwrap import dedent
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Read-only consumers of the package: whatever they name is live.
CONSUMERS = ("setup.py", "examples/*.py", "benchmarks/suite/*.py")
#: Readers that are not roots: an attribute they load is not write-only.
READERS = ("tests/**/*.py",)

#: ``symbol -> reason``: unreachable from the roots, kept on purpose.
#: Four classes only: fixtures by design, reference implementations
#: tests compare against, paper-claim observation points, and accessors
#: without side effects that test files *not dedicated to them* use.
_FIXTURE = "fixture: an executor the fault-plan tests address by string"
_LATENCY = "paper claim (Section 2.1, per-packet latency): tests/test_latency.py"
_ACCESSOR = "accessor that >= 2 test files not dedicated to it observe with"
ALLOWED: Dict[str, str] = {
    "campaign/faults.py::echo": _FIXTURE,
    "campaign/faults.py::fail_until": _FIXTURE,
    "campaign/faults.py::unpicklable_result": _FIXTURE,
    "core/token_bucket.py::TokenBucket.fill": "reference implementation: "
    "TbrScheduler._fill_event inlines it and must stay 'in lockstep'",
    "transport/stats.py::FlowStats.mean_delay_us": _LATENCY,
    "transport/stats.py::FlowStats.delay_percentile_us": _LATENCY,
    "sim/kernel.py::Simulator.pending_count": _ACCESSOR,
    "mac/dcf.py::DcfMac.busy_with_frame": _ACCESSOR,
    "node/access_point.py::AccessPoint.downlink_packets": _ACCESSOR,
    "core/tbr.py::TbrScheduler.token_rate": _ACCESSOR,
    "queueing/base.py::ApScheduler.is_associated": _ACCESSOR,
}

_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
#: ``"package.module:name"``, as a job executor or a console script.
_ADDRESS = re.compile(r"(?:[\w-]+\s*=\s*)?([A-Za-z_][\w.]*):([A-Za-z_]\w*)")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_OUTSIDE = ("outside", None)  # a name imported from another distribution

Key = Tuple[str, str]  # (dotted module, qualified name inside it)
#: What a body touches: ("node", Key), ("attr", name) of something
#: untyped, or ("escape", module) for a module used as a value.
Ref = Tuple[str, object]


def _owner(key: Key) -> Key:
    """The class a method node belongs to."""
    return (key[0], key[1].rpartition(".")[0])


def _imports_below(tree: ast.AST) -> Dict[str, Tuple[str, Optional[str]]]:
    """``local name -> (module, symbol or None)`` for every import below."""
    found = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:  # ``import a.b`` binds ``a``
                top = alias.name.partition(".")[0]
                found[alias.asname or top] = (
                    alias.name if alias.asname else top, None
                )
        elif isinstance(stmt, ast.ImportFrom):
            assert not stmt.level, "the census resolves absolute imports only"
            for alias in stmt.names:
                found[alias.asname or alias.name] = (stmt.module, alias.name)
    return found


def _assigned_name(stmt: ast.AST) -> Optional[str]:
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        target = getattr(stmt, "target", None) or stmt.targets[0]
        return getattr(target, "id", None)
    return None


def _strings(tree: ast.AST) -> List[ast.Constant]:
    leaves = (n for n in ast.walk(tree) if isinstance(n, ast.Constant))
    return [leaf for leaf in leaves if isinstance(leaf.value, str)]


def _annotation_names(tree: ast.AST) -> Set[str]:
    """Names used inside string annotations (``mac: "DcfMac"``)."""
    notes = [
        note
        for node in ast.walk(tree)
        for note in (
            [node.returns] if isinstance(node, _DEFS)
            else [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
            else []
        )
        if note is not None
    ]
    names = set()
    for leaf in (leaf for note in notes for leaf in _strings(note)):
        try:
            parsed = ast.parse(leaf.value, mode="eval")
        except SyntaxError:  # a ``Literal["..."]`` value, not a name
            continue
        names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


class Census:
    """Walk ``src/package`` and mark what the roots reach."""

    def __init__(
        self,
        src: Path,
        package: str,
        consumers: Iterable[Path] = (),
        readers: Iterable[Path] = (),
    ):
        self.top, self.base = package, src / package
        self.modules: Dict[str, SimpleNamespace] = {}
        self.nodes: Dict[Key, SimpleNamespace] = {}
        for path in sorted(self.base.rglob("*.py")):
            parts = list(path.relative_to(src).with_suffix("").parts)
            name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            self.modules[name] = self._load(name, path)
        for module in self.modules.values():
            self._collect(module)
        for key, node in self.nodes.items():
            node.refs = self._refs(self.modules[key[0]], node.body)
        roots: List[Ref] = []
        for module in self.modules.values():
            roots += self._refs(module, module.executable)
        self.outsiders = [self._load(f"<{path.name}>", path) for path in consumers]
        for outsider in self.outsiders:
            roots += self._refs(outsider, [outsider.tree])
        self.readers = [self._load(f"<{path.name}>", path) for path in readers]
        self.alive = self._mark(roots)
        exports = [
            (module, name, line)
            for module in self.modules.values()
            for name, line in module.exported
        ]
        self.visited = len(self.nodes) + len(exports)
        self.stale_exports = [
            f"{module.where}:{line} __all__ names {name!r}, which the "
            "module does not bind"
            for module, name, line in exports
            if name not in module.bound
        ]

    def _load(self, name: str, path: Path) -> SimpleNamespace:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, str(path))
        inside = self.base in path.parents
        return SimpleNamespace(
            name=name, tree=tree, lines=text.splitlines(),
            where=path.relative_to(self.base).as_posix() if inside else name,
            imports=_imports_below(tree),
            bound=set(),  # names the module's top level binds
            exported=[],  # (name, line) of every ``__all__`` entry
            executable=[],  # top-level statements that run on import
        )

    def _collect(self, module: SimpleNamespace) -> None:
        """Split a module's top level into nodes and executable code."""

        def add(qualname: str, kind: str, stmt: ast.stmt) -> SimpleNamespace:
            return self.nodes.setdefault(
                (module.name, qualname),
                SimpleNamespace(
                    kind=kind,  # "def" | "class" | "constant" | "method"
                    label=f"{module.where}::{qualname}",
                    where=f"{module.where}:{stmt.lineno}",
                    body=[], bases=[], refs=set(),
                ),
            )

        def code(stmt) -> List[ast.AST]:
            return [stmt.args, *stmt.body, *filter(None, [stmt.returns])]

        for stmt in module.tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                module.bound.update(_imports_below(stmt))
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
                        name = f"{stmt.name}.{inner.name}"
                        add(name, "method", inner).body += code(inner)
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

    def _imported(self, source: str, symbol: Optional[str]):
        if source.partition(".")[0] != self.top:
            return _OUTSIDE
        if symbol is None:
            return ("module", source) if source in self.modules else None
        return self._symbol(source, symbol)

    def _symbol(self, module: str, name: str):
        """``module.name`` as ("node", key) | ("module", name) | None."""
        if module not in self.modules:
            return None
        if (module, name) in self.nodes:
            return ("node", (module, name))
        found = self.modules[module].imports.get(name)
        if (
            found is not None
            and found != (module, name)  # ``from package import submodule``
            and name in self.modules[module].bound
        ):
            return self._imported(*found)
        if f"{module}.{name}" in self.modules:
            return ("module", f"{module}.{name}")
        return None

    def _address(self, text: str) -> Optional[Key]:
        """The node a ``"package.module:name"`` string names, if any."""
        match = _ADDRESS.fullmatch(text)
        key = match and (match.group(1), match.group(2))
        return key if key in self.nodes else None

    def _refs(self, module, trees: List[ast.AST]) -> Set[Ref]:
        """Every reference the given subtrees of ``module`` make."""
        out: Set[Ref] = set()
        imports = dict(module.imports)
        for tree in trees:  # a function's own imports shadow the module's
            imports.update(_imports_below(tree))

        def typed(expr: ast.AST):
            """Resolve a dotted chain, recording what it touches."""
            if isinstance(expr, ast.Name):
                found = None
                if (module.name, expr.id) in self.nodes:
                    found = ("node", (module.name, expr.id))
                elif expr.id in imports:
                    found = self._imported(*imports[expr.id])
            elif isinstance(expr, ast.Attribute):
                base = typed(expr.value)
                if base == _OUTSIDE:
                    return _OUTSIDE
                kind, target = base or (None, None)
                if kind == "module":
                    found = self._symbol(target, expr.attr)
                else:  # only a class node has ``Class.attr`` children
                    key = kind and (target[0], f"{target[1]}.{expr.attr}")
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
                out.add(("node", self._address(tree.value)))
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
        out.discard(("node", None))
        return out

    def _inherits_outside(self, key: Key, seen: Tuple[Key, ...] = ()) -> bool:
        """Whether a class has a base the package does not define."""
        for base in self.nodes[key].bases:
            parents = [
                target
                for kind, target in self._refs(self.modules[key[0]], [base])
                if kind == "node" and self.nodes[target].kind == "class"
            ]
            if not parents and getattr(base, "id", None) != "object":
                return True
            if any(
                p not in seen and self._inherits_outside(p, (*seen, key))
                for p in parents
            ):
                return True
        return False

    def _mark(self, work: List[Ref]) -> Set[Key]:
        methods: Dict[Key, List[Key]] = {}
        named: Dict[str, List[Key]] = {}
        for key, node in self.nodes.items():
            if node.kind == "method":
                methods.setdefault(_owner(key), []).append(key)
            named.setdefault(key[1].rpartition(".")[2], []).append(key)
        alive: Set[Key] = set()
        wanted: Set[str] = set()  # attribute names asked of untyped objects
        escaped: Set[str] = set()  # modules handed around as values

        while work:
            kind, target = work.pop()
            if kind == "attr" and target not in wanted:
                wanted.add(target)
                for key in named.get(target, ()):
                    if self.nodes[key].kind == "method":
                        reached = _owner(key) in alive
                    else:
                        reached = key[0] in escaped
                    if reached:
                        work.append(("node", key))
            elif kind == "escape" and target not in escaped:
                escaped.add(target)
                work += [
                    ("node", key)
                    for key, node in self.nodes.items()
                    if key[0] == target
                    and node.kind != "method"
                    and key[1] in wanted
                ]
            elif kind == "node" and target is not None and target not in alive:
                alive.add(target)
                node = self.nodes[target]
                work += node.refs
                if node.kind == "method":
                    work.append(("node", _owner(target)))
                elif node.kind == "class":
                    every = self._inherits_outside(target)
                    work += [
                        ("node", key)
                        for key in methods.get(target, ())
                        if every
                        or (name := key[1].rpartition(".")[2]) in wanted
                        or name[:2] == "__" == name[-2:]
                    ]
        return alive

    def unreachable(self) -> Dict[str, SimpleNamespace]:
        """``label -> node``; a dead class stands for its methods."""
        return {
            node.label: node
            for key, node in self.nodes.items()
            if key not in self.alive
            and not (node.kind == "method" and _owner(key) not in self.alive)
        }

    def unlisted(self, allowed: Dict[str, str]) -> List[str]:
        """One ``file:line symbol`` line per finding not allow-listed."""
        return [
            f"{node.where} {label.partition('::')[2]} is reachable from no root"
            for label, node in sorted(self.unreachable().items())
            if label not in allowed
        ] + self.stale_exports

    def write_only(self) -> List[str]:
        """``file:line Class.attr`` for every attribute stored on ``self``
        that nothing loads and no string names."""
        trees = [
            m.tree
            for m in (*self.modules.values(), *self.outsiders, *self.readers)
        ]
        read = {leaf.value for tree in trees for leaf in _strings(tree)}
        read.update(
            node.attr
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
        found: Dict[str, Tuple[str, int]] = {}
        for module in self.modules.values():
            classes = (n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef))
            for cls in classes:
                methods = (f for f in cls.body if isinstance(f, _DEFS))
                for node in (n for f in methods for n in ast.walk(f)):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and getattr(node.value, "id", None) == "self"
                        and node.attr not in read
                    ):
                        found.setdefault(
                            f"{cls.name}.{node.attr}", (module.where, node.lineno)
                        )
        return [
            f"{where}:{line} {name} is stored but never read"
            for name, (where, line) in sorted(found.items(), key=lambda i: i[1])
        ]

    def unused_imports(self) -> List[str]:
        """``file:line name`` for every module-level import a
        non-``__init__`` module (or a reader) never uses."""
        findings = []
        for module in [*self.modules.values(), *self.readers]:
            if module.where.endswith("__init__.py"):
                continue
            tree = module.tree
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            used |= _annotation_names(tree)
            used.update(name for name, _ in module.exported)
            nested = {
                id(inner)
                for scope in ast.walk(tree)
                if isinstance(scope, (*_DEFS, ast.ClassDef))
                for inner in ast.walk(scope)
            }
            for stmt in ast.walk(tree):
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    continue
                span = module.lines[stmt.lineno - 1:stmt.end_lineno]
                if (
                    id(stmt) in nested
                    or getattr(stmt, "module", None) == "__future__"
                    or any("# noqa: F401" in line for line in span)
                ):
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        findings.append(
                            f"{module.where}:{stmt.lineno} {bound} is imported "
                            "but never used"
                        )
        return findings

    def rotted(self, allowed: Dict[str, str]) -> List[str]:
        """Allow-list entries that are gone or have become reachable."""
        dead = self.unreachable()
        return [
            f"ALLOWED names {label}, which is gone or has become reachable"
            for label in sorted(allowed)
            if label not in dead
        ]


@pytest.fixture(scope="module")
def real() -> Census:
    consumers = [path for glob in CONSUMERS for path in sorted(ROOT.glob(glob))]
    readers = [path for glob in READERS for path in sorted(ROOT.glob(glob))]
    return Census(ROOT / "src", "repro", consumers, readers)


def test_nothing_under_src_lives_only_for_its_tests(real):
    findings = real.unlisted(ALLOWED)
    assert not findings, "\n" + "\n".join(findings)


def test_nothing_under_src_is_stored_but_never_read(real):
    findings = real.write_only()
    assert not findings, "\n" + "\n".join(findings)


def test_no_module_imports_what_it_never_uses(real):
    findings = real.unused_imports()
    assert not findings, "\n" + "\n".join(findings)


def test_walk_is_not_empty_and_the_allow_list_has_not_rotted(real):
    assert real.visited > 1000, real.visited
    anchors = {
        ("repro.cli", "main"),  # setup.py's console script
        ("repro.scenario.runner", "execute_scenario"),  # an executor string
        ("repro.sim.kernel", "Simulator.heap_compactions"),  # the suite
        ("repro.serve", "_Connection.data_received"),  # asyncio calls it
        ("repro.core.token_bucket", "TokenBucket.fill_skipped"),  # TIME_STATE
    }
    assert anchors <= real.alive, anchors - real.alive
    rotted = real.rotted(ALLOWED)
    assert not rotted, "\n" + "\n".join(rotted)


#: A throwaway package: a live function, a def reached only through an
#: address string, an override of an outside base, a two-class cluster
#: that only references itself, an ``__all__`` entry that names nothing.
PLANTED = {
    "__init__.py": """
        from pkg.mod import used, Ping
        __all__ = ["used", "Ping", "vanished"]
    """,
    "mod.py": """
        import threading

        EXECUTOR = "pkg.mod:by_address"

        def used():
            return EXECUTOR, Worker().start()

        def by_address(params):
            return params

        class Worker(threading.Thread):
            def run(self):
                pass

        class Ping:
            def serve(self):
                return Pong().serve()

        class Pong:
            def serve(self):
                return Ping().serve()

        if __name__ == "__main__":
            used()
    """,
}


def test_guard_names_exactly_the_dead_cluster_and_the_stale_export(tmp_path):
    (tmp_path / "pkg").mkdir()
    for name, text in PLANTED.items():
        (tmp_path / "pkg" / name).write_text(dedent(text).lstrip("\n"))
    planted = Census(tmp_path, "pkg")
    assert planted.unlisted({}) == [
        "mod.py:15 Ping is reachable from no root",
        "mod.py:19 Pong is reachable from no root",
        "__init__.py:2 __all__ names 'vanished', which the module does not bind",
    ]
    listed = dict.fromkeys(("mod.py::Ping", "mod.py::used", "x.py::y"), "")
    assert planted.rotted(listed) == [
        "ALLOWED names mod.py::used, which is gone or has become reachable",
        "ALLOWED names x.py::y, which is gone or has become reachable",
    ]


#: A throwaway module for the two rules without an allow-list: a counter
#: only ever incremented, an attribute only a string names, one only a
#: reader loads, an unused import, a re-export, a string annotation;
#: the reader beside it imports one name it never uses.
WRITE_ONLY = """
    import os
    from typing import Dict  # noqa: F401
    from typing import Optional

    class Meter:
        TIME_STATE = dict(counters=("ticks",))

        def __init__(self, sizes: "Optional[dict]"):
            self.sizes = sizes
            self.ticks = 0
            self.total = 0
            self.peek = 0

        def add(self):
            self.total += 1
            self.ticks += 1
            return self.sizes
"""


def test_write_only_and_unused_import_rules_name_exactly_the_planted(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(dedent(WRITE_ONLY).lstrip("\n"))
    (tmp_path / "test_mod.py").write_text(
        "from __future__ import annotations\nimport json\n\n"
        "def test(meter):\n    meter.peek\n"
    )
    planted = Census(tmp_path, "pkg", readers=[tmp_path / "test_mod.py"])
    assert planted.write_only() == [
        "mod.py:11 Meter.total is stored but never read",
    ]
    assert planted.unused_imports() == [
        "mod.py:1 os is imported but never used",
        "<test_mod.py>:2 json is imported but never used",
    ]
