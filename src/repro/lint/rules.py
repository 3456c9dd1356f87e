"""The repro rule pack: six invariants the paper's figures depend on.

========  ===============  ==========================================================
Rule      Name             Protects
========  ===============  ==========================================================
RL001     determinism      run-to-run identical figures (no wall clock, global RNG,
                           or set-order scheduling inputs)
RL002     sim-kernel       events actually waited on (``yield``) and only Events
                           yielded to the event loop
RL003     mpi-hygiene      deadlock-free SPMD call shapes (paired p2p, collectives
                           outside rank branches)
RL004     unit-safety      the bits/bytes and GB/GiB axes of the roofline figures
                           (conversions via ``repro.units``, not magic numbers)
RL005     error-hierarchy  the ``ReproError`` taxonomy (callers can catch precisely)
RL006     float-equality   threshold/convergence logic (no exact float compares)
RL007     diagnostics      the library/CLI boundary (no ``print`` or raw stderr
                           writes outside the CLI and the linter itself)
========  ===============  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import FileContext, Rule, register
from repro.lint.findings import Finding, Severity


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function in the module, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_statements(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function body but stop at nested function/class boundaries."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


#: Path fragments RL004 skips: ``repro/units.py`` defines the conversions
#: everyone else must use.
UNIT_EXEMPT = ("repro/units.py",)

#: Path fragments where RL006 applies (the numeric convergence paths).
FLOAT_EQ_PATHS = ("sim/", "core/", "analysis/")

#: Path fragments RL007 skips: the CLI layer, the linter's own reporters,
#: and the result store's advisory channel print by design.
DIAGNOSTIC_EXEMPT = ("cli.py", "lint/", "campaign/store.py")


# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------

#: Wall-clock reads: any of these dotted suffixes is nondeterministic input.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

#: stdlib ``random`` module-level functions (the hidden global Mersenne state).
_STDLIB_RNG = {
    "random", "randint", "randrange", "uniform", "normalvariate", "gauss",
    "shuffle", "choice", "choices", "sample", "seed", "betavariate",
    "expovariate", "random_sample", "triangular", "vonmisesvariate",
}

#: ``numpy.random`` legacy module-level functions (hidden global RandomState).
_NUMPY_RNG = {
    "rand", "randn", "random", "randint", "random_sample", "seed", "shuffle",
    "permutation", "choice", "uniform", "normal", "standard_normal", "poisson",
    "exponential", "binomial",
}


@register
class DeterminismRule(Rule):
    """RL001: no wall clock, global RNG, or set-order iteration in sim paths."""

    rule_id = "RL001"
    name = "determinism"
    summary = (
        "wall-clock reads, module-level RNG, and bare-set iteration make "
        "runs unrepeatable"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        # The scoped wall-clock exemption (repro/hostprof/): host-side
        # profiling reads the real clock by design; RNG checks still apply.
        wallclock_ok = ctx.in_scope(config.wallclock_exempt)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, wallclock_ok)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                anchor = node if isinstance(node, ast.For) else iterable
                if self._is_bare_set(iterable):
                    yield self.finding(
                        ctx, anchor,
                        "iteration over a bare set: ordering is hash-dependent; "
                        "sort it (or use a list/dict) before it feeds scheduling",
                    )

    def _check_call(
        self, ctx: FileContext, node: ast.Call, wallclock_ok: bool = False
    ) -> Iterator[Finding]:
        fn = dotted_name(node.func)
        if fn is None:
            return
        parts = fn.split(".")
        tail2 = ".".join(parts[-2:])
        if tail2 in _WALL_CLOCK:
            if not wallclock_ok:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read {fn}(): simulated time must come from "
                    "Environment.now",
                )
            return
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _STDLIB_RNG:
            yield self.finding(
                ctx, node,
                f"module-level RNG {fn}(): thread a seeded random.Random "
                "through the constructor instead",
            )
            return
        if (
            len(parts) >= 3
            and parts[-3] in ("np", "numpy")
            and parts[-2] == "random"
            and parts[-1] in _NUMPY_RNG
        ):
            yield self.finding(
                ctx, node,
                f"module-level RNG {fn}(): thread a seeded "
                "numpy.random.Generator through the constructor instead",
            )
            return
        if parts[-1] == "default_rng" and not node.args and not node.keywords:
            yield self.finding(
                ctx, node,
                "default_rng() without a seed: pass an explicit seed so runs "
                "are reproducible",
            )
            return
        if fn == "random.Random" and not node.args and not node.keywords:
            yield self.finding(
                ctx, node,
                "random.Random() without a seed: pass an explicit seed so "
                "runs are reproducible",
            )

    @staticmethod
    def _is_bare_set(node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "set"
        )


# ---------------------------------------------------------------------------
# RL002 — sim-kernel misuse
# ---------------------------------------------------------------------------

#: Calls that mark a function as interacting with the discrete-event kernel.
_SIM_MARKERS = {
    "timeout", "process", "event", "all_of", "any_of", "first_of",
    "gpu_kernel", "cpu_compute", "transfer", "succeed", "interrupt",
}
#: Event constructors/factories whose result is dead if not yielded/stored.
#: A dropped ``transfer`` flow is worse than dead: it still claims the NICs
#: and moves its bytes, and nobody waits for it.
_EVENT_MAKERS = {"timeout", "event", "first_of", "transfer"}
_EVENT_CLASSES = {"Timeout", "Event", "AllOf", "AnyOf", "FirstOf"}


@register
class SimKernelRule(Rule):
    """RL002: sim generators must yield Events, and must not drop them."""

    rule_id = "RL002"
    name = "sim-kernel"
    summary = (
        "a Timeout/Event created but never yielded, or a non-Event yielded, "
        "silently desynchronizes the simulation"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            body = list(_own_statements(func))
            if not self._is_sim_generator(body):
                continue
            for node in body:
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                    yield from self._check_dropped(ctx, node.value)
                elif isinstance(node, ast.Yield):
                    yield from self._check_yielded(ctx, node)

    def _is_sim_generator(self, body: list[ast.AST]) -> bool:
        has_yield = any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in body)
        if not has_yield:
            return False
        for node in body:
            if isinstance(node, ast.Call):
                fn = dotted_name(node.func)
                if fn is None:
                    continue
                leaf = fn.split(".")[-1]
                if leaf in _SIM_MARKERS or fn in _EVENT_CLASSES:
                    return True
        return False

    def _check_dropped(self, ctx: FileContext, call: ast.Call) -> Iterator[Finding]:
        fn = dotted_name(call.func)
        if fn is None:
            return
        leaf = fn.split(".")[-1]
        if leaf in _EVENT_MAKERS or fn in _EVENT_CLASSES:
            yield self.finding(
                ctx, call,
                f"{fn}(...) creates an event that is never yielded or stored "
                "— the process will not wait on it",
            )

    def _check_yielded(self, ctx: FileContext, node: ast.Yield) -> Iterator[Finding]:
        if node.value is None:
            yield self.finding(
                ctx, node,
                "bare `yield` in a sim process yields None, which is not an "
                "Event",
            )
        elif isinstance(node.value, ast.Constant):
            yield self.finding(
                ctx, node,
                f"`yield {node.value.value!r}` hands a non-Event to the event "
                "loop; yield an Event (or use `yield from` for generators)",
            )


# ---------------------------------------------------------------------------
# RL003 — MPI hygiene
# ---------------------------------------------------------------------------

_P2P_SEND = {"send", "isend"}
_P2P_RECV = {"recv", "irecv"}
_P2P_BOTH = {"sendrecv"}
_COLLECTIVES = {
    "bcast", "barrier", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "reduce_scatter", "scan",
}


def _is_comm_call(node: ast.Call) -> str | None:
    """The MPI method name when *node* is a call on a ``comm`` object."""
    if not isinstance(node.func, ast.Attribute):
        return None
    method = node.func.attr
    if method not in _P2P_SEND | _P2P_RECV | _P2P_BOTH | _COLLECTIVES:
        return None
    receiver = dotted_name(node.func.value)
    if receiver is None:
        return None
    leaf = receiver.split(".")[-1]
    return method if leaf in ("comm", "communicator", "world") else None


def _mentions_rank(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in ("rank", "root"):
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank", "root"):
            return True
    return False


@register
class MpiHygieneRule(Rule):
    """RL003: flag deadlock-shaped MPI call sequences in rank programs."""

    rule_id = "RL003"
    name = "mpi-hygiene"
    summary = (
        "unpaired point-to-point calls or rank-conditional collectives are "
        "deadlock-shaped: some rank waits forever"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            body = list(_own_statements(func))
            sends, recvs, boths = [], [], []
            for node in body:
                if isinstance(node, ast.Call):
                    method = _is_comm_call(node)
                    if method in _P2P_SEND:
                        sends.append(node)
                    elif method in _P2P_RECV:
                        recvs.append(node)
                    elif method in _P2P_BOTH:
                        boths.append(node)
            yield from self._check_collectives(ctx, func)
            if boths or (not sends and not recvs):
                continue
            if self._has_rank_branch(body):
                # Root/leaf asymmetry: pairing is data-dependent, give up.
                continue
            if sends and not recvs:
                yield self.finding(
                    ctx, sends[0],
                    "every rank sends but none receives in this function — "
                    "deadlock-shaped; pair sends with recv/sendrecv",
                )
            elif recvs and not sends:
                yield self.finding(
                    ctx, recvs[0],
                    "every rank receives but none sends in this function — "
                    "deadlock-shaped; pair recvs with send/sendrecv",
                )

    @staticmethod
    def _has_rank_branch(body: list[ast.AST]) -> bool:
        return any(
            isinstance(node, (ast.If, ast.IfExp)) and _mentions_rank(node.test)
            for node in body
        )

    def _check_collectives(
        self, ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        """Collectives lexically inside a rank-conditional branch deadlock."""
        stack: list[tuple[ast.AST, bool]] = [(stmt, False) for stmt in func.body]
        while stack:
            node, in_rank_branch = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                method = _is_comm_call(node)
                if method in _COLLECTIVES and in_rank_branch:
                    yield self.finding(
                        ctx, node,
                        f"collective {method}() inside a rank-conditional "
                        "branch — collectives must be called by every rank",
                    )
            branch_flag = in_rank_branch
            if isinstance(node, ast.If) and _mentions_rank(node.test):
                for child in node.body + node.orelse:
                    stack.append((child, True))
                stack.append((node.test, in_rank_branch))
                continue
            for child in ast.iter_child_nodes(node):
                stack.append((child, branch_flag))


# ---------------------------------------------------------------------------
# RL004 — unit safety
# ---------------------------------------------------------------------------

#: Magic conversion factors and the repro.units helper that replaces them.
_MAGIC = {
    1e3: "units.KILO / units.to_ms()",
    1e6: "units.MEGA / units.mflops_per_watt()",
    1e9: "units.GIGA / units.gbyte_s() / units.gflops()",
    1e-3: "units.ms()",
    1e-6: "units.us()",
    1e-9: "units.to_gflops() / units.to_gbyte_s()",
    1024: "units.KB / units.kib()",
    1024.0: "units.KB / units.kib()",
    1048576: "units.MB / units.mib()",
    1073741824: "units.GB / units.gib()",
    8: "units.to_bits() / units.doubles()",
    8.0: "units.to_bits() / units.doubles()",
    1000: "units.KILO",
    1000000: "units.MEGA",
    1000000000: "units.GIGA",
}


@register
class UnitSafetyRule(Rule):
    """RL004: unit conversions must go through ``repro.units`` helpers."""

    rule_id = "RL004"
    name = "unit-safety"
    summary = (
        "magic-number conversions (1e9, 1024, *8) invite bits-vs-bytes and "
        "GB-vs-GiB mistakes on the roofline axes"
    )
    severity = Severity.WARNING

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        if ctx.in_scope(UNIT_EXEMPT):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Mult, ast.Div)):
                continue
            for side in (node.left, node.right):
                value = self._magic_value(side)
                if value is not None:
                    yield self.finding(
                        ctx, node,
                        f"magic conversion factor {value!r}: use "
                        f"{_MAGIC[value]} (or a named constant) from "
                        "repro.units",
                    )
                    break

    @staticmethod
    def _magic_value(node: ast.AST) -> float | int | None:
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and node.value in _MAGIC
        ):
            return node.value
        return None


# ---------------------------------------------------------------------------
# RL005 — error hierarchy
# ---------------------------------------------------------------------------

_AD_HOC_ERRORS = {
    "ValueError",
    "RuntimeError",
    # Fault paths: builtin error types that hide injected failures from
    # callers catching the typed taxonomy (NetworkError, MPITimeoutError,
    # RankFailedError, NodeFailure, ...).
    "TimeoutError",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionAbortedError",
    "BrokenPipeError",
    "OSError",
    "IOError",
    "InterruptedError",
}


@register
class ErrorHierarchyRule(Rule):
    """RL005: raise the ``ReproError`` taxonomy, not bare builtins."""

    rule_id = "RL005"
    name = "error-hierarchy"
    summary = (
        "raising bare ValueError/RuntimeError hides failures from callers "
        "that catch the ReproError taxonomy"
    )
    severity = Severity.WARNING

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _AD_HOC_ERRORS:
                yield self.finding(
                    ctx, node,
                    f"raise {name} inside repro: use the ReproError taxonomy "
                    "in repro.errors (ConfigurationError, SimulationError, "
                    "AnalysisError, ...) so callers can catch precisely",
                )


# ---------------------------------------------------------------------------
# RL006 — float equality
# ---------------------------------------------------------------------------


@register
class FloatEqualityRule(Rule):
    """RL006: no exact ==/!= against float literals in numeric paths."""

    rule_id = "RL006"
    name = "float-equality"
    summary = (
        "exact float comparison in convergence/threshold logic flips with "
        "rounding; use math.isclose or an explicit tolerance"
    )

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        if not ctx.in_scope(FLOAT_EQ_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, (left, right) in zip(node.ops, zip(operands, operands[1:])):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(self._is_float_literal(side) for side in (left, right)):
                    yield self.finding(
                        ctx, node,
                        "exact ==/!= against a float literal: use "
                        "math.isclose(), an explicit tolerance, or suppress "
                        "with a justification if exact-zero is intended",
                    )
                    break

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        ):
            return True
        return False


# ---------------------------------------------------------------------------
# RL007 — diagnostic channels
# ---------------------------------------------------------------------------

#: ``sys.<stream>.write`` targets that bypass the CLI/telemetry layers.
_RAW_STREAMS = {"sys.stderr.write", "sys.stdout.write", "stderr.write", "stdout.write"}


@register
class DiagnosticChannelRule(Rule):
    """RL007: library code must not print or write raw streams.

    Simulation layers report through return values, the error taxonomy, or
    the telemetry sink; ad-hoc ``print()`` calls corrupt machine-read CLI
    output (the report artifacts) and are invisible to exporters.  The CLI
    layer and the linter's own reporters are exempt (``DIAGNOSTIC_EXEMPT``).
    """

    rule_id = "RL007"
    name = "diagnostics"
    summary = (
        "print()/raw stream writes in library code bypass the CLI and "
        "telemetry layers and corrupt machine-read output"
    )
    severity = Severity.WARNING

    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        if ctx.in_scope(DIAGNOSTIC_EXEMPT):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = dotted_name(node.func)
            if fn == "print":
                yield self.finding(
                    ctx, node,
                    "print() in library code: return the value, raise a "
                    "ReproError, or record it on the telemetry sink; only "
                    "the CLI layer prints",
                )
            elif fn in _RAW_STREAMS:
                yield self.finding(
                    ctx, node,
                    f"{fn}() in library code: raw stream writes bypass the "
                    "CLI/telemetry layers; raise or record instead",
                )
