"""The incremental analysis cache under ``.repro-cache/lint/``.

Linting is pure: findings are a function of (file contents, configuration,
analyzer code).  So the cache keys are exactly those three things —

* **file entries** (``file-<digest>.json``) hold one file's raw per-file
  findings, keyed by a digest of its path and contents;
* the **project entry** (``project-<digest>.json``) holds the raw
  whole-program findings, keyed by the digest of every file digest in
  order (any edit anywhere invalidates it — interprocedural facts are
  global);
* both carry an **analysis fingerprint** — a hash of the lint package's
  own sources plus the :class:`LintConfig` in force — so editing a rule or
  a config default invalidates everything without version bookkeeping.

Storage rides the existing campaign :class:`~repro.campaign.store.ResultStore`
(atomic writes, fingerprint validation, advisory misses), rooted at
``<cache-root>/lint`` and honouring ``REPRO_CACHE_DIR`` /
``REPRO_DISK_CACHE=0`` like every other cache in the tree.

Suppressions are applied *outside* the cache, on raw findings, so adding
or removing a ``noqa`` never poisons a cached entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from repro.lint.config import LintConfig
from repro.lint.findings import Finding

#: Bump to orphan cache entries across layout changes.
CACHE_SCHEMA = 1


def file_digest(path: str, source: str) -> str:
    """Content address of one source file (path included: findings carry it)."""
    h = hashlib.sha256()
    h.update(path.encode("utf-8"))
    h.update(b"\x00")
    h.update(source.encode("utf-8"))
    return h.hexdigest()[:24]


def project_digest(file_digests: Iterable[str]) -> str:
    """Content address of the whole project (order-sensitive)."""
    h = hashlib.sha256()
    for digest in file_digests:
        h.update(digest.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()[:24]


def _package_digest() -> str:
    """Hash of the lint package's own sources (the analyzer version)."""
    package_dir = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        h.update(path.name.encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
    return h.hexdigest()[:24]


def analysis_fingerprint(config: LintConfig) -> str:
    """The invalidation key: analyzer sources + configuration."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "package": _package_digest(),
            "config": asdict(config),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


class LintCache:
    """Findings cache over a :class:`~repro.campaign.store.ResultStore`."""

    def __init__(self, root: str | Path, fingerprint: str) -> None:
        from repro.campaign.store import ResultStore

        self.store = ResultStore(root)
        self.fingerprint = fingerprint

    @classmethod
    def open(cls, config: LintConfig) -> "LintCache | None":
        """The cache for the configured root, or None when disabled."""
        from repro.campaign.store import resolve_cache_root

        root = resolve_cache_root()
        if root is None:
            return None
        return cls(Path(root) / "lint", analysis_fingerprint(config))

    def get_file(self, digest: str) -> list[Finding] | None:
        """Cached raw findings for one file, or None."""
        return self._decode(self.store.get("file", digest, self.fingerprint))

    def put_file(self, digest: str, findings: list[Finding]) -> None:
        """Publish one file's raw findings."""
        self.store.put(
            "file", digest, self.fingerprint, [f.to_dict() for f in findings]
        )

    def get_project(self, digest: str) -> list[Finding] | None:
        """Cached raw whole-program findings, or None."""
        return self._decode(self.store.get("project", digest, self.fingerprint))

    def put_project(self, digest: str, findings: list[Finding]) -> None:
        """Publish the whole-program findings."""
        self.store.put(
            "project", digest, self.fingerprint, [f.to_dict() for f in findings]
        )

    @staticmethod
    def _decode(payload) -> list[Finding] | None:
        if not isinstance(payload, list):
            return None
        try:
            return [Finding.from_dict(item) for item in payload]
        except Exception:
            return None  # advisory cache: malformed entries are misses
