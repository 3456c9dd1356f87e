"""Lint configuration: the rule scopes the shipped tree is checked under.

The defaults *are* the project's configuration — there is no config file.
Tests (and programmatic callers) pass other values by constructing a
:class:`LintConfig` directly.

``select`` / ``ignore``
    Rule ids to run (empty: every registered rule) and to skip even if
    selected; ``repro lint --select/--ignore`` set these.
``wallclock_exempt`` / ``taint_exempt``
    Path fragments where direct wall-clock reads are allowed (RL001's
    wall-clock check is skipped; RNG checks still apply) and which the
    interprocedural determinism rule (RL100) skips.  Both are scoped to
    ``repro/hostprof/`` — the host-observability package is the only
    blessed clock-domain crossing, and RL500 keeps simulation-domain
    packages from importing it.

Scopes that never vary are constants beside the rule that reads them
(``UNIT_EXEMPT``, ``FLOAT_EQ_PATHS`` and ``DIAGNOSTIC_EXEMPT`` in
:mod:`repro.lint.rules`, ``PROCESS_ROOTS`` in
:mod:`repro.lint.rules_interproc`).
"""

from __future__ import annotations

from dataclasses import dataclass

_HOSTPROF = ("repro/hostprof/",)


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration."""

    select: tuple[str, ...] = ()  # empty = all registered rules
    ignore: tuple[str, ...] = ()
    taint_exempt: tuple[str, ...] = _HOSTPROF
    wallclock_exempt: tuple[str, ...] = _HOSTPROF

    def enabled(self, rule_id: str) -> bool:
        """Whether *rule_id* should run under this config."""
        if rule_id in self.ignore:
            return False
        return not self.select or rule_id in self.select
