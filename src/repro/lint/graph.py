"""Project-wide symbol table and import/call graph.

The whole-program rule families (RL100 determinism taint, RL300 process
safety, RL500 clock domains) need to see across file boundaries: a
wall-clock read three frames below ``Job.run``, module state reachable
from a campaign worker, a simulation-domain module importing
``repro.hostprof``.  This module turns a set of parsed files into that view:

* every file becomes a :class:`ModuleInfo` with a dotted module name, its
  import table (local alias -> fully-qualified target), its top-level
  definitions, and its module-level mutable bindings;
* every function/method becomes a :class:`FunctionInfo` with its call
  sites, each resolved (when possible) to the fully-qualified name of a
  function defined somewhere in the project;
* :class:`ProjectGraph` ties them together and answers the reachability
  questions the rules ask (imports-reachable modules, alias chasing).

Resolution is deliberately syntactic: aliases are chased through ``import``
and ``from ... import`` statements (including re-exports in
``__init__.py``), but no attempt is made to track dynamic dispatch.  Rules
built on top over-approximate accordingly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Constructors whose result is module-level *mutable* state when bound at
#: top level (the hazard RL300 guards).
_MUTABLE_CTORS = {
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque",
}


def module_name_for(path: str) -> str:
    """The dotted module name a file path denotes.

    ``src/repro/network/fabric.py`` -> ``repro.network.fabric``; a
    package's ``__init__.py`` maps to the package itself.  Paths outside a
    ``src`` root fall back to the full path with separators dotted, which
    keeps names unique (and resolution self-consistent) for fixture trees.
    """
    posix = path.replace("\\", "/")
    parts = [p for p in posix.split("/") if p not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: The dotted name as written (``env.timeout``), None for dynamic calls.
    raw: str | None
    #: Fully-qualified project name when resolution succeeded.
    resolved: str | None


@dataclass
class FunctionInfo:
    """One function or method, addressed by fully-qualified name."""

    qualname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class MutableGlobal:
    """A module-level binding to a mutable container."""

    name: str
    module: str
    node: ast.AST
    #: Lines inside function bodies that mutate the binding in place.
    mutation_lines: list[int] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything the project graph records about one file."""

    module: str
    path: str
    tree: ast.Module
    #: True when the file is a package ``__init__.py``.
    is_package: bool = False
    #: Local alias -> fully-qualified dotted target.
    imports: dict[str, str] = field(default_factory=dict)
    #: Top-level def/class names defined here.
    definitions: set[str] = field(default_factory=set)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    mutable_globals: dict[str, MutableGlobal] = field(default_factory=dict)
    #: Project modules named by import statements (edges of the import graph).
    imported_modules: set[str] = field(default_factory=set)


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_initializer(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_CTORS
    return False


def _collect_imports(info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
                info.imported_modules.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: anchor at the enclosing package.  A
                # package __init__ already dropped its trailing segment in
                # module_name_for, so level 1 is the module itself there.
                parts = info.module.split(".") if info.module else []
                drop = node.level - 1 if info.is_package else node.level
                anchor = ".".join(parts[: len(parts) - drop]) if drop else info.module
                base = f"{anchor}.{base}" if base else anchor
            info.imported_modules.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}"


def _collect_functions(info: ModuleInfo) -> None:
    def visit(body: Iterable[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = f"{prefix}{node.name}"
                qual = f"{info.module}.{local}"
                info.functions[local] = FunctionInfo(
                    qualname=qual, module=info.module, node=node
                )
                if not prefix:
                    info.definitions.add(node.name)
                visit(node.body, f"{local}.")
            elif isinstance(node, ast.ClassDef):
                if not prefix:
                    info.definitions.add(node.name)
                visit(node.body, f"{prefix}{node.name}.")


    visit(info.tree.body, "")


def _collect_mutable_globals(info: ModuleInfo) -> None:
    for node in info.tree.body:
        targets: list[ast.expr] = []
        value: ast.AST | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not _is_mutable_initializer(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                info.mutable_globals[target.id] = MutableGlobal(
                    name=target.id, module=info.module, node=node
                )


#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "extend", "add", "update", "setdefault", "pop", "popitem",
    "clear", "remove", "discard", "insert", "appendleft",
}


def _collect_mutations(info: ModuleInfo) -> None:
    """Find in-function statements that mutate a module-level container."""
    if not info.mutable_globals:
        return
    for func in info.functions.values():
        local_names = {
            a.arg for a in (
                *func.node.args.args, *func.node.args.posonlyargs,
                *func.node.args.kwonlyargs,
            )
        }
        for node in ast.walk(func.node):
            name: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                        name = target.value.id
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                        name = target.value.id
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                name = node.func.value.id
            if name and name in info.mutable_globals and name not in local_names:
                info.mutable_globals[name].mutation_lines.append(node.lineno)


def _collect_calls(info: ModuleInfo, graph: "ProjectGraph") -> None:
    for func in info.functions.values():
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                raw = dotted(node.func)
                resolved = graph.resolve(info.module, raw) if raw else None
                func.calls.append(CallSite(node=node, raw=raw, resolved=resolved))


class ProjectGraph:
    """The whole-program view: modules, functions, imports, calls."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: Fully-qualified function name -> info, across every module.
        self.functions: dict[str, FunctionInfo] = {}
        for info in modules.values():
            for func in info.functions.values():
                self.functions[func.qualname] = func

    # -- name resolution ----------------------------------------------------

    def resolve(self, module: str, name: str | None, _depth: int = 0) -> str | None:
        """Resolve dotted *name* written inside *module* to a project symbol.

        Chases import aliases (bounded) and returns the fully-qualified
        name of a function defined in the project, or None when the name
        points outside the project (stdlib, parameters, dynamic values).
        """
        if name is None or _depth > 8:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = name.partition(".")
        if head in info.imports:
            target = info.imports[head]
            candidate = f"{target}.{rest}" if rest else target
            return self._resolve_qualified(candidate, _depth + 1)
        if head in info.definitions or head in info.functions:
            return self._resolve_qualified(f"{module}.{name}", _depth + 1)
        return None

    def _resolve_qualified(self, qualname: str, _depth: int) -> str | None:
        """Chase a fully-qualified candidate through re-export aliases."""
        if _depth > 8:
            return None
        if qualname in self.functions:
            return qualname
        # ``repro.units.gbyte_s``: module prefix + symbol (possibly via an
        # __init__ re-export that aliases it onward).
        module, _, symbol = qualname.rpartition(".")
        info = self.modules.get(module)
        if info is None or not symbol:
            # Maybe the "module" part itself needs alias chasing later;
            # give up (syntactic resolution only).
            return qualname if qualname in self.modules else None
        if symbol in info.functions:
            return info.functions[symbol].qualname
        if symbol in info.imports:
            return self._resolve_qualified(info.imports[symbol], _depth + 1)
        if symbol in info.definitions:
            return qualname
        return None

    # -- reachability -------------------------------------------------------

    def reachable_modules(self, roots: Iterable[str]) -> set[str]:
        """Project modules transitively imported from *roots*.

        Import edges are followed through packages: ``from repro.campaign
        import spec`` reaches ``repro.campaign`` and
        ``repro.campaign.spec``.  Roots absent from the project contribute
        nothing.
        """
        seen: set[str] = set()
        stack = [r for r in roots if r in self.modules]
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            seen.add(module)
            info = self.modules[module]
            for target in sorted(info.imported_modules):
                for candidate in self._module_candidates(target):
                    if candidate in self.modules and candidate not in seen:
                        stack.append(candidate)
        return seen

    def _module_candidates(self, target: str) -> Iterator[str]:
        """The project modules an import target may denote.

        ``from repro.campaign.store import ResultStore`` names the module
        ``repro.campaign.store``; ``import repro.units`` names
        ``repro.units``; either may also be a package ``__init__``.
        """
        yield target
        # ``from X import name`` where name is itself a submodule.
        prefix = f"{target}."
        for module in self.modules:
            if module.startswith(prefix) and "." not in module[len(prefix):]:
                yield module

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every function in the project, in deterministic order."""
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


def build_graph(files: Iterable[tuple[str, ast.Module]]) -> ProjectGraph:
    """Build the project graph from (path, parsed tree) pairs."""
    modules: dict[str, ModuleInfo] = {}
    for path, tree in files:
        is_package = path.replace("\\", "/").endswith("__init__.py")
        info = ModuleInfo(
            module=module_name_for(path), path=path, tree=tree,
            is_package=is_package,
        )
        _collect_imports(info)
        _collect_functions(info)
        _collect_mutable_globals(info)
        _collect_mutations(info)
        modules[info.module] = info
    graph = ProjectGraph(modules)
    for info in modules.values():
        _collect_calls(info, graph)
    return graph
