"""The lint engine: rule registry, suppressions, caching, and the walkers.

Two rule flavours share one registry:

* a per-file :class:`Rule` parses one file at a time (the RL001–RL007
  pack);
* a :class:`ProjectRule` sees the whole program at once through a
  :class:`ProjectContext` — symbol table, import/call graph and taint
  analysis — and powers RL100, RL300 and RL500.

``lint_project`` is the full pipeline: per-file rules served from the
fingerprint-keyed incremental cache under ``.repro-cache/lint/``, the
interprocedural pass cached on the whole-project digest, then inline
``noqa[RLxxx] <justification>`` suppressions — the one suppression
mechanism — with per-rule usage statistics, stale-suppression detection,
and a refusal to honour a ``noqa`` that carries no justification.
``lint_source``/``lint_paths`` remain as the simple front doors used by
tests and tooling.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity

#: Matches the inline suppression marker, bare or with ``[RL001, RL004]``,
#: and the justification text that must follow it.  The justification
#: stops at the next ``#``, so another tool's trailing comment does not
#: count as one.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>\s*RL\d+(?:\s*,\s*RL\d+)*\s*)\])?"
    r"(?P<why>[^#]*)"
)

#: Sentinel meaning "every rule suppressed on this line".
ALL_RULES = "*"


@dataclass(frozen=True)
class FileContext:
    """Everything a rule needs about one source file, parsed once."""

    path: str
    source: str
    tree: ast.Module

    def in_scope(self, fragments: Iterable[str]) -> bool:
        """True when the file path contains any of *fragments* (posix-style)."""
        posix = self.path.replace("\\", "/")
        return any(fragment in posix for fragment in fragments)


class ProjectContext:
    """The whole-program view shared by every :class:`ProjectRule`.

    The graph and the (expensive) taint analysis are built lazily and
    memoized, so a run with the interprocedural families disabled never
    pays for them.
    """

    def __init__(self, files: Iterable[FileContext]) -> None:
        self.files: tuple[FileContext, ...] = tuple(files)
        self._graph = None
        self._taints = None

    @property
    def graph(self):
        """The :class:`~repro.lint.graph.ProjectGraph` over all files."""
        if self._graph is None:
            from repro.lint.graph import build_graph

            self._graph = build_graph((f.path, f.tree) for f in self.files)
        return self._graph

    @property
    def taints(self):
        """The interprocedural :class:`~repro.lint.dataflow.TaintAnalysis`."""
        if self._taints is None:
            from repro.lint.dataflow import TaintAnalysis

            self._taints = TaintAnalysis(self.graph)
        return self._taints

    def context_for(self, module: str) -> FileContext | None:
        """The file context holding *module*, if any."""
        info = self.graph.modules.get(module)
        if info is None:
            return None
        for ctx in self.files:
            if ctx.path == info.path:
                return ctx
        return None


class Rule(abc.ABC):
    """One statically-checkable per-file invariant.

    Class attributes document the rule for ``--list-rules`` and LINT.md;
    :meth:`check` yields findings against a parsed file.
    """

    #: Stable id, e.g. ``"RL001"``.
    rule_id: str = ""
    #: Short name, e.g. ``"determinism"``.
    name: str = ""
    #: One-line description of what the rule protects.
    summary: str = ""
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check(self, ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
        """Yield every violation of this rule in *ctx*."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at *node*."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )


class ProjectRule(abc.ABC):
    """One whole-program invariant, checked once over the project."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check_project(
        self, project: ProjectContext, config: LintConfig
    ) -> Iterator[Finding]:
        """Yield every violation of this rule across *project*."""

    def finding_at(self, path: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at *node* inside *path*."""
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )


#: The global registry: rule id -> rule instance (both flavours).
RULES: dict[str, Rule | ProjectRule] = {}


def register(cls):
    """Class decorator adding a rule to the registry (id must be unique)."""
    rule = cls()
    if not re.fullmatch(r"RL\d{3}", rule.rule_id):
        raise ConfigurationError(f"bad rule id {rule.rule_id!r} on {cls.__name__}")
    if rule.rule_id in RULES:
        raise ConfigurationError(f"duplicate rule id {rule.rule_id}")
    RULES[rule.rule_id] = rule
    return cls


def per_file_rules() -> list[str]:
    """Registered per-file rule ids, sorted."""
    return sorted(r for r in RULES if isinstance(RULES[r], Rule))


def project_rules() -> list[str]:
    """Registered whole-program rule ids, sorted."""
    return sorted(r for r in RULES if isinstance(RULES[r], ProjectRule))


def suppressions(source: str) -> tuple[dict[int, set[str]], list[int]]:
    """Parse every ``repro: noqa`` marker in *source* once.

    Returns ``(table, bare)``: *table* maps line number -> rule ids
    suppressed there (:data:`ALL_RULES` = all); *bare* lists the lines
    whose marker carries no justification and so suppresses nothing.
    """
    table: dict[int, set[str]] = {}
    bare: list[int] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        if not match.group("why").strip():
            bare.append(lineno)
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = {ALL_RULES}
        else:
            table.setdefault(lineno, set()).update(
                r.strip() for r in rules.split(",")
            )
    return table, bare


@dataclass
class SuppressionStats:
    """How the inline ``noqa`` population was exercised by one run."""

    #: rule id -> number of findings an inline noqa suppressed.
    used: dict[str, int] = field(default_factory=dict)
    #: (path, line, rule-or-``*``) noqa entries that matched no finding.
    stale: list[tuple[str, int, str]] = field(default_factory=list)
    #: (path, line) of noqa markers ignored for lacking a justification.
    unjustified: list[tuple[str, int]] = field(default_factory=list)


def apply_suppressions(
    findings: Iterable[Finding],
    parsed: dict[str, tuple[dict[int, set[str]], list[int]]],
) -> tuple[list[Finding], SuppressionStats]:
    """Drop suppressed findings; account for usage, staleness, bare markers.

    *parsed* maps file path -> the file's :func:`suppressions` result.  A
    noqa entry that suppressed nothing is *stale* — the code it excused
    has moved or been fixed — and is reported so suppressions cannot
    quietly outlive their justification.
    """
    tables = {path: table for path, (table, _) in parsed.items()}
    stats = SuppressionStats(
        unjustified=[
            (path, line) for path in sorted(parsed) for line in parsed[path][1]
        ]
    )
    kept: list[Finding] = []
    hit: set[tuple[str, int, str]] = set()
    for finding in findings:
        table = tables.get(finding.path, {})
        suppressed = table.get(finding.line, ())
        if ALL_RULES in suppressed:
            stats.used[finding.rule] = stats.used.get(finding.rule, 0) + 1
            hit.add((finding.path, finding.line, ALL_RULES))
        elif finding.rule in suppressed:
            stats.used[finding.rule] = stats.used.get(finding.rule, 0) + 1
            hit.add((finding.path, finding.line, finding.rule))
        else:
            kept.append(finding)
    for path in sorted(tables):
        for line in sorted(tables[path]):
            for rule in sorted(tables[path][line]):
                if (path, line, rule) not in hit:
                    stats.stale.append((path, line, rule))
    return kept, stats


@dataclass
class LintResult:
    """Everything one full lint run produced."""

    findings: list[Finding]
    suppressions: SuppressionStats
    #: Incremental-cache accounting for this run.
    files_total: int = 0
    files_from_cache: int = 0
    project_from_cache: bool = False
    cache_enabled: bool = False

    @property
    def cache_status(self) -> str:
        """One-line cache summary (stable wording, greppable in CI)."""
        if not self.cache_enabled:
            return "lint cache: disabled"
        state = "warm" if self.project_from_cache else "cold"
        return (
            f"lint cache: {state} "
            f"({self.files_from_cache}/{self.files_total} files cached, "
            f"interprocedural pass "
            f"{'cached' if self.project_from_cache else 'recomputed'})"
        )


def _check_file(ctx: FileContext, config: LintConfig) -> list[Finding]:
    """Raw per-file findings (pre-suppression) for one parsed file."""
    findings: list[Finding] = []
    for rule_id in per_file_rules():
        if config.enabled(rule_id):
            findings.extend(RULES[rule_id].check(ctx, config))
    return findings


def _check_project(project: ProjectContext, config: LintConfig) -> list[Finding]:
    """Raw whole-program findings (pre-suppression, deduplicated).

    A call site inside a nested function is visible from both the outer
    and the inner FunctionInfo walk; identical findings collapse here.
    """
    findings: list[Finding] = []
    for rule_id in project_rules():
        if config.enabled(rule_id):
            findings.extend(RULES[rule_id].check_project(project, config))
    return list(dict.fromkeys(findings))


def _parse(source: str, path: str) -> FileContext | Finding:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            rule="RL000",
            message=f"file does not parse: {exc.msg}",
        )
    return FileContext(path=path, source=source, tree=tree)


def lint_source(
    source: str,
    path: str = "<memory>",
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint one source string; *path* drives the path-scoped rules.

    Runs both rule flavours (the file is its own one-module project), so
    single-file snippets exercise the interprocedural families too.
    """
    config = config or LintConfig()
    parsed = _parse(source, path)
    if isinstance(parsed, Finding):
        return [parsed]
    findings = _check_file(parsed, config)
    findings.extend(_check_project(ProjectContext([parsed]), config))
    findings, _ = apply_suppressions(findings, {path: suppressions(source)})
    return sorted(findings, key=Finding.sort_key)


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into the .py files beneath them, sorted."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            yield path
        else:
            raise ConfigurationError(f"no such file or directory: {path}")


def lint_project(
    paths: Iterable[Path | str],
    config: LintConfig | None = None,
    use_cache: bool = True,
) -> LintResult:
    """The full pipeline over every Python file under *paths*.

    Per-file findings are served from the incremental cache when the
    file's content (and the analysis fingerprint) is unchanged; the
    interprocedural pass is cached on the whole-project digest.  Inline
    suppressions are applied *after* caching, so cached entries stay
    valid when only a noqa moves.
    """
    from repro.lint.cache import LintCache, file_digest, project_digest

    config = config or LintConfig()
    cache = LintCache.open(config) if use_cache else None

    files: list[tuple[str, str, str]] = []  # (path, source, digest)
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        files.append((file.as_posix(), source, file_digest(file.as_posix(), source)))

    result = LintResult(
        findings=[],
        suppressions=SuppressionStats(),
        files_total=len(files),
        cache_enabled=cache is not None,
    )

    raw: list[Finding] = []
    parsed: dict[str, FileContext] = {}
    parse_failures: set[str] = set()

    def ensure_parsed(path: str, source: str) -> FileContext | None:
        if path in parsed:
            return parsed[path]
        if path in parse_failures:
            return None
        outcome = _parse(source, path)
        if isinstance(outcome, Finding):
            parse_failures.add(path)
            return None
        parsed[path] = outcome
        return outcome

    # Per-file pass, incremental.
    for path, source, digest in files:
        cached = cache.get_file(digest) if cache is not None else None
        if cached is not None:
            result.files_from_cache += 1
            raw.extend(cached)
            if any(f.rule == "RL000" for f in cached):
                parse_failures.add(path)
            continue
        ctx = ensure_parsed(path, source)
        if ctx is None:
            file_findings = [_parse(source, path)]  # the RL000 finding
        else:
            file_findings = _check_file(ctx, config)
        raw.extend(file_findings)
        if cache is not None:
            cache.put_file(digest, file_findings)

    # Whole-program pass, cached on the project digest.
    proj_digest = project_digest(f[2] for f in files)
    cached_project = cache.get_project(proj_digest) if cache is not None else None
    if cached_project is not None:
        result.project_from_cache = True
        raw.extend(cached_project)
    else:
        contexts = [
            ctx
            for path, source, _ in files
            if (ctx := ensure_parsed(path, source)) is not None
        ]
        project_findings = _check_project(ProjectContext(contexts), config)
        raw.extend(project_findings)
        if cache is not None:
            cache.put_project(proj_digest, project_findings)

    kept, result.suppressions = apply_suppressions(
        raw, {path: suppressions(source) for path, source, _ in files}
    )
    result.findings = sorted(kept, key=Finding.sort_key)
    return result


def lint_paths(
    paths: Iterable[Path | str],
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint every Python file under *paths*; findings in stable order."""
    return lint_project(paths, config=config).findings
