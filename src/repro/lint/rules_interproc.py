"""The whole-program rule families: RL100–RL500.

==========  =================  ====================================================
Family      Name               Protects
==========  =================  ====================================================
RL100       interproc-         run-to-run identical figures against nondeterminism
            determinism        arriving *through helpers*: a call whose resolved
                               callee transitively returns a wall-clock read or
                               global-RNG draw, and iteration over a call that
                               returns a bare ``set`` (hash order)
RL300       process-safety     campaign workers against module-level mutable
                               state: globals mutated inside functions in modules
                               importable from the worker entry points, and
                               functions returning references into such state
RL400       span-balance       the telemetry timeline against half-open spans: a
                               ``.span(...)``/``.async_span(...)`` opened outside
                               a ``with`` block is not closed on exception paths
RL500       clock-domain       the two-clock firewall: simulation-domain packages
                               (``repro.sim``/``mpi``/``network``/``workloads``)
                               must never import ``repro.hostprof`` — the
                               wall-clock-exempt host-observability layer depends
                               on the simulator, never the reverse
==========  =================  ====================================================

RL100, RL300 and RL500 are :class:`~repro.lint.engine.ProjectRule`\\ s —
they need the project graph; RL400 is per-file.  All four ride the
standard Finding/noqa machinery.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import (
    FileContext,
    ProjectContext,
    ProjectRule,
    Rule,
    register,
)
from repro.lint.findings import Finding, Severity
from repro.lint.graph import ModuleInfo, dotted


def _in_scope(path: str, fragments) -> bool:
    posix = path.replace("\\", "/")
    return any(fragment in posix for fragment in fragments)


# ---------------------------------------------------------------------------
# RL100 — interprocedural determinism
# ---------------------------------------------------------------------------


@register
class InterprocDeterminismRule(ProjectRule):
    """RL100: nondeterminism reaching a call site through helpers."""

    rule_id = "RL100"
    name = "interproc-determinism"
    summary = (
        "a call whose callee transitively returns wall-clock/global-RNG "
        "values, or iteration over a callee-returned bare set, smuggles "
        "nondeterminism past the per-file checker"
    )

    def check_project(
        self, project: ProjectContext, config: LintConfig
    ) -> Iterator[Finding]:
        taints = project.taints
        graph = project.graph
        for module_name in sorted(graph.modules):
            info = graph.modules[module_name]
            if _in_scope(info.path, config.taint_exempt):
                continue
            for local in sorted(info.functions):
                func = info.functions[local]
                for site in func.calls:
                    found = taints.call_taints(module_name, site.node)
                    for kind in sorted(found):
                        witness = found[kind]
                        yield self.finding_at(
                            info.path, site.node,
                            f"{site.raw}() returns a value influenced by "
                            f"{witness.render()}; nondeterministic inputs "
                            "must not reach simulated results — thread "
                            "seeded RNGs / Environment.now instead",
                        )
                yield from self._check_set_iteration(
                    info, func.node, module_name, taints
                )

    def _check_set_iteration(
        self, info: ModuleInfo, func_node, module_name: str, taints
    ) -> Iterator[Finding]:
        for node in ast.walk(func_node):
            iterable = None
            if isinstance(node, ast.For):
                iterable = node.iter
            elif isinstance(node, ast.comprehension):
                iterable = node.iter
            if (
                isinstance(iterable, ast.Call)
                and taints.call_returns_set(module_name, iterable)
            ):
                yield self.finding_at(
                    info.path, iterable,
                    f"iteration over {dotted(iterable.func)}(), which "
                    "returns a bare set: ordering is hash-dependent; sort "
                    "it (or return a list) before it feeds scheduling",
                )


# ---------------------------------------------------------------------------
# RL300 — cache / process safety
# ---------------------------------------------------------------------------


@register
class ProcessSafetyRule(ProjectRule):
    """RL300: module-level mutable state visible to campaign workers."""

    rule_id = "RL300"
    name = "process-safety"
    summary = (
        "module-level mutable state in worker-importable modules diverges "
        "silently across processes; results must flow through return "
        "values or the fingerprinted store"
    )
    severity = Severity.WARNING

    def check_project(
        self, project: ProjectContext, config: LintConfig
    ) -> Iterator[Finding]:
        graph = project.graph
        reachable = graph.reachable_modules(config.process_roots)
        if not any(root in graph.modules for root in config.process_roots):
            # Partial tree (a subtree lint, a fixture): no worker entry
            # point in sight, so conservatively treat every module as
            # worker-visible.
            reachable = set(graph.modules)
        for module_name in sorted(reachable):
            info = graph.modules[module_name]
            for name in sorted(info.mutable_globals):
                glob = info.mutable_globals[name]
                if glob.mutation_lines:
                    lines = ", ".join(
                        str(n) for n in sorted(set(glob.mutation_lines))[:4]
                    )
                    yield self.finding_at(
                        info.path, glob.node,
                        f"module-level mutable {name!r} is mutated inside "
                        f"function bodies (line(s) {lines}) and the module "
                        "is importable from campaign worker processes; "
                        "per-process copies diverge silently — pass state "
                        "explicitly or publish through the result store",
                    )
            yield from self._check_escaping_returns(info)

    def _check_escaping_returns(self, info: ModuleInfo) -> Iterator[Finding]:
        for local in sorted(info.functions):
            func = info.functions[local]
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                target = node.value
                if isinstance(target, ast.Subscript):
                    target = target.value
                if (
                    isinstance(target, ast.Name)
                    and target.id in info.mutable_globals
                ):
                    yield self.finding_at(
                        info.path, node,
                        f"returning a reference into module-level "
                        f"{target.id!r}: cached objects escaping their "
                        "defensive snapshot can be mutated by one caller "
                        "and observed by the next — return a copy",
                    )


# ---------------------------------------------------------------------------
# RL500 — clock-domain firewall
# ---------------------------------------------------------------------------

#: Module prefixes that live on the simulated clock and must stay free of
#: host-clock (``repro.hostprof``) dependencies.
_SIM_DOMAIN_PREFIXES = (
    "repro.sim", "repro.mpi", "repro.network", "repro.workloads",
)
_HOSTPROF_PREFIX = "repro.hostprof"


def _in_domain(module_name: str, prefixes) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in prefixes
    )


@register
class ClockDomainRule(ProjectRule):
    """RL500: simulation-domain modules must not import repro.hostprof."""

    rule_id = "RL500"
    name = "clock-domain"
    summary = (
        "repro.hostprof is the only wall-clock-exempt package; a "
        "simulation-domain import of it would let host time leak into "
        "simulated results, so the dependency arrow must stay one-way"
    )

    def check_project(
        self, project: ProjectContext, config: LintConfig
    ) -> Iterator[Finding]:
        graph = project.graph
        for module_name in sorted(graph.modules):
            if not _in_domain(module_name, _SIM_DOMAIN_PREFIXES):
                continue
            info = graph.modules[module_name]
            # Walk the whole tree (not just the module body) so lazy
            # in-function imports cannot tunnel under the firewall.
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                for imported in names:
                    if not _in_domain(imported, (_HOSTPROF_PREFIX,)):
                        continue
                    yield self.finding_at(
                        info.path, node,
                        f"simulation-domain module {module_name} imports "
                        f"{imported}: the host-clock package must depend "
                        "on the simulator, never the reverse — read "
                        "simulator activity from the telemetry sink's "
                        "counters instead",
                    )


# ---------------------------------------------------------------------------
# RL400 — telemetry span balance
# ---------------------------------------------------------------------------

#: Receiver leaf names that look like a telemetry sink.
_SINK_LEAVES = {"telemetry", "_telemetry", "sink", "_sink"}
_SPAN_METHODS = {"span", "async_span"}


@register
class SpanBalanceRule(Rule):
    """RL400: spans must be opened in ``with`` blocks."""

    rule_id = "RL400"
    name = "span-balance"
    summary = (
        "a telemetry span opened outside a with block is not closed on "
        "exception paths, leaving half-open intervals in exported traces"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        with_exprs: set[int] = set()
        with_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
                    if isinstance(item.context_expr, ast.Name):
                        with_names.add(item.context_expr.id)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and self._is_span_call(node.value):
                # ``s = t.span(...)`` then ``with s:`` is balanced.
                if all(
                    isinstance(t, ast.Name) and t.id in with_names
                    for t in node.targets
                ):
                    with_exprs.add(id(node.value))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_span_call(node) and id(node) not in with_exprs:
                yield self.finding(
                    ctx, node,
                    f"{dotted(node.func)}(...) opens a span outside a "
                    "`with` block: it will never close on an exception "
                    "path; use `with ...` (or bind it and `with` it)",
                )

    @staticmethod
    def _is_span_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr not in _SPAN_METHODS:
            return False
        receiver = dotted(node.func.value)
        if receiver is None:
            return False
        leaf = receiver.split(".")[-1]
        return leaf in _SINK_LEAVES or "telemetry" in leaf
