"""``repro.lint``: whole-program static analysis for the simulator.

The paper's figures depend on reproducible measurement; this package
machine-checks the invariants that keep them reproducible.  The per-file
pack (RL001–RL007) covers determinism, sim-kernel correctness, MPI
call-shape hygiene, unit safety, the error taxonomy, float-comparison
discipline, and diagnostic channels.  The whole-program families ride a
project-wide symbol table and import/call graph: RL100 propagates
wall-clock/RNG/set-order taint interprocedurally, RL300 checks
cache/process safety for campaign workers, RL400 checks telemetry span
balance, and RL500 keeps ``repro.hostprof`` out of the simulation domain.
Findings are suppressed only inline, by a ``repro: noqa[RLxxx]`` comment
that carries its justification.  See ``docs/LINT.md`` for the rule
catalogue.

Programmatic use (the :class:`LintConfig` defaults are the project's
configuration)::

    from repro.lint import LintConfig, lint_project
    result = lint_project(["src/repro"], config=LintConfig())
    for finding in result.findings:
        print(finding.render())

Command line::

    python -m repro lint [paths ...] [--format json] [--select RL001,RL004]
"""

from repro.lint.config import LintConfig
from repro.lint.engine import (
    ALL_RULES,
    RULES,
    FileContext,
    LintResult,
    ProjectContext,
    ProjectRule,
    Rule,
    SuppressionStats,
    lint_paths,
    lint_project,
    lint_source,
    register,
    suppressions,
)
from repro.lint.findings import Finding, Severity
from repro.lint.reporters import parse_json, render_json, render_text

# Importing the rule packs populates the registry.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)
from repro.lint import rules_interproc as _rules_interproc  # noqa: F401

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "Rule",
    "Severity",
    "SuppressionStats",
    "lint_paths",
    "lint_project",
    "lint_source",
    "parse_json",
    "register",
    "render_json",
    "render_text",
    "suppressions",
]
