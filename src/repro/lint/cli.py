"""The ``python -m repro lint`` entry point.

Exit codes: 0 when the tree is clean, 1 when findings exist, 2 on usage
errors (bad paths, unknown rule ids).  With no path argument it lints the
``repro`` package it runs from, under the :class:`LintConfig` defaults.

Stream discipline: the findings report (text/json) goes to stdout;
everything advisory — cache status, suppression statistics, stale and
unjustified ``noqa`` notices — goes to stderr.  CI relies on this split:
cold and warm runs must produce byte-identical stdout while stderr says
which one hit the cache.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig
from repro.lint.engine import RULES, LintResult, lint_project
from repro.lint.reporters import render_json, render_text

#: The ``repro`` package this linter ships in: the default lint target.
_PACKAGE_DIR = Path(__file__).resolve().parent.parent


def _rule_ids(value: str) -> tuple[str, ...]:
    """``"RL004,RL006"`` -> ``("RL004", "RL006")``."""
    return tuple(r.strip() for r in value.split(",") if r.strip())


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to *parser* (shared with the repro CLI)."""
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", type=_rule_ids, metavar="RLxxx[,RLxxx...]", default=(),
        help="run only these comma-separated rule ids",
    )
    parser.add_argument(
        "--ignore", type=_rule_ids, metavar="RLxxx[,RLxxx...]", default=(),
        help="skip these comma-separated rule ids",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the incremental cache under .repro-cache/lint/",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def _list_rules() -> str:
    lines = []
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(f"{rule_id} {rule.name:24s} {rule.summary}")
    return "\n".join(lines)


def _report_advisories(result: LintResult) -> None:
    """Cache and suppression accounting, on stderr only."""
    print(result.cache_status, file=sys.stderr)
    if result.suppressions.used:
        counts = ", ".join(
            f"{rule}: {n}" for rule, n in sorted(result.suppressions.used.items())
        )
        print(f"suppressions used ({counts})", file=sys.stderr)
    for path, line, rule in result.suppressions.stale:
        label = "all rules" if rule == "*" else rule
        print(
            f"stale suppression: {path}:{line} noqa[{label}] matched no finding",
            file=sys.stderr,
        )
    for path, line in result.suppressions.unjustified:
        print(
            f"unjustified suppression: {path}:{line} bare noqa ignored — "
            "add the reason after the marker",
            file=sys.stderr,
        )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        print(_list_rules())
        return 0
    try:
        unknown = [r for r in (*args.select, *args.ignore) if r not in RULES]
        if unknown:
            raise ConfigurationError(f"unknown rule ids: {', '.join(unknown)}")
        config = LintConfig(select=args.select, ignore=args.ignore)
        targets = [Path(p) for p in args.paths] or [_PACKAGE_DIR]
        result = lint_project(
            targets, config=config, use_cache=not args.no_cache
        )
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    _report_advisories(result)
    findings = result.findings
    render = render_json if args.format == "json" else render_text
    print(render(findings))
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Whole-program static analysis for the repro simulator "
                    "(determinism, process safety, spans, clock domains).",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
