"""Lint configuration: the rule scopes the shipped tree is checked under.

The defaults *are* the project's configuration — there is no config file.
Tests (and programmatic callers) pass other values by constructing a
:class:`LintConfig` directly.

``select`` / ``ignore``
    Rule ids to run (empty: every registered rule) and to skip even if
    selected; ``repro lint --select/--ignore`` set these.
``unit_exempt``
    Path fragments exempt from the unit-safety rule (RL004):
    ``repro/units.py`` defines the conversions everyone else must use.
``float_eq_paths``
    Path fragments where the float-equality rule (RL006) applies.
``diagnostic_exempt``
    Path fragments exempt from the diagnostic-channel rule (RL007): the
    CLI layer, the linter's own reporters, and the result store's
    advisory channel print by design.
``wallclock_exempt`` / ``taint_exempt``
    Path fragments where direct wall-clock reads are allowed (RL001's
    wall-clock check is skipped; RNG checks still apply) and which the
    interprocedural determinism rule (RL100) skips.  Both are scoped to
    ``repro/hostprof/`` — the host-observability package is the only
    blessed clock-domain crossing, and RL500 keeps simulation-domain
    packages from importing it.
``process_roots``
    Module names treated as campaign-worker entry points for the
    process-safety rule (RL300); every module importable from a root is
    worker-visible.
"""

from __future__ import annotations

from dataclasses import dataclass

_HOSTPROF = ("repro/hostprof/",)


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration."""

    select: tuple[str, ...] = ()  # empty = all registered rules
    ignore: tuple[str, ...] = ()
    unit_exempt: tuple[str, ...] = ("repro/units.py",)
    float_eq_paths: tuple[str, ...] = ("sim/", "core/", "analysis/")
    diagnostic_exempt: tuple[str, ...] = ("cli.py", "lint/", "campaign/store.py")
    taint_exempt: tuple[str, ...] = _HOSTPROF
    wallclock_exempt: tuple[str, ...] = _HOSTPROF
    process_roots: tuple[str, ...] = (
        "repro.campaign.runner",
        "repro.campaign.supervisor",
        "repro.bench.runner",
    )

    def enabled(self, rule_id: str) -> bool:
        """Whether *rule_id* should run under this config."""
        if rule_id in self.ignore:
            return False
        return not self.select or rule_id in self.select
