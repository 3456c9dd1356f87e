"""The persistent result store: one JSON file per cached artifact.

Entries live under ``.repro-cache/`` (override with ``REPRO_CACHE_DIR``,
disable entirely with ``REPRO_DISK_CACHE=0``) as
``<digest[:2]>/<kind>-<digest>.json`` — ``kind`` tags what the payload is
(a full run, a baseline row), ``digest`` is the
:class:`~repro.campaign.spec.RunSpec` content address, and the two-hex
shard prefix keeps directories small under campaign-scale entry counts
(the layout the ROADMAP's serve daemon asks for).  Every entry records
the code fingerprint it was written under; a lookup whose fingerprint
differs is a miss, so editing any simulator source invalidates the whole
store without any bookkeeping.

The store is **advisory, never a source of errors** — and self-healing:

* every payload carries a content checksum; an entry whose bytes no
  longer match (bit rot, a torn write that survived, a hand edit) is
  detected on read, deleted, and reported as a miss so the run simply
  re-executes (``corrupt_repaired`` counts the repairs);
* :meth:`put` degrades gracefully on a full or read-only disk — one
  stderr advisory plus the ``put_errors`` counter, never an exception;
* writes are atomic (temp file + ``os.replace``) so concurrent campaign
  workers can publish results without torn files, and stale
  ``*.tmp.<pid>`` droppings from crashed writers are garbage-collected
  opportunistically on :meth:`put` and always on :meth:`clear`.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError

#: Schema stamped into every store file; bump to orphan old layouts.
#: v2 added the payload checksum and the digest-prefix shard layout.
STORE_SCHEMA = 2

#: Default store directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_FALSY = ("0", "no", "off", "false")


def _advise(message: str) -> None:
    """One stderr advisory line (the store never raises at callers)."""
    sys.stderr.write(f"repro store: {message}\n")


def _pid_alive(pid: int) -> bool:
    """True when *pid* is a live process we must not clean up after."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM) — leave its files alone
    return True


def _tmp_owner_pid(path: Path) -> int | None:
    """The writer pid encoded in a ``*.tmp.<pid>`` name, or None."""
    suffix = path.name.rpartition(".")[2]
    return int(suffix) if suffix.isdigit() else None


class ResultStore:
    """A fingerprint-validated, checksummed JSON store with accounting."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Corrupted entries detected on read and deleted (self-healing).
        self.corrupt_repaired = 0
        #: Failed publishes swallowed by the advisory contract.
        self.put_errors = 0
        #: Stale temp files from crashed writers garbage-collected.
        self.tmp_collected = 0
        self._warned_degraded = False

    def _check_address(self, kind: str, digest: str) -> None:
        if not kind.replace("-", "a").isidentifier():
            raise ConfigurationError(f"bad store kind {kind!r}")
        if not digest or not digest.replace("-", "a").replace("_", "a").isalnum():
            raise ConfigurationError(f"bad store digest {digest!r}")

    def entry_path(self, kind: str, digest: str) -> Path:
        """Where (*kind*, *digest*) lives: a digest-prefix sharded path."""
        self._check_address(kind, digest)
        shard = digest[:2] if len(digest) >= 2 else "00"
        return self.root / shard / f"{kind}-{digest}.json"

    # -- read path -------------------------------------------------------------

    def _repair(self, path: Path, why: str) -> None:
        """Delete a corrupt entry so the slot heals on the next put."""
        try:
            path.unlink()
        except OSError:
            return  # already gone, or unwritable: stays a plain miss
        self.corrupt_repaired += 1
        _advise(f"dropped corrupt entry {path.name} ({why}); will re-run")

    def get(self, kind: str, digest: str, fingerprint: str) -> Any | None:
        """The payload cached for (*kind*, *digest*), or None.

        A missing file, unreadable JSON, schema mismatch, stale
        fingerprint, or checksum mismatch all count as a miss — the store
        is advisory, never a source of errors.  Corrupt entries (bad JSON
        or bad checksum) are additionally deleted so the slot self-heals.
        """
        from repro.campaign.serialize import payload_checksum

        path = self.entry_path(kind, digest)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            document = json.loads(raw)
        except json.JSONDecodeError:
            self._repair(path, "invalid JSON")
            self.misses += 1
            return None
        if (
            not isinstance(document, dict)
            or document.get("schema") != STORE_SCHEMA
            or document.get("fingerprint") != fingerprint
        ):
            self.misses += 1
            return None
        payload = document.get("payload")
        if document.get("checksum") != payload_checksum(payload):
            self._repair(path, "checksum mismatch")
            self.misses += 1
            return None
        self.hits += 1
        return payload

    # -- write path ------------------------------------------------------------

    def _collect_stale_tmp(self, directory: Path) -> int:
        """Remove ``*.tmp.<pid>`` droppings whose writer is dead."""
        removed = 0
        try:
            droppings = sorted(directory.glob("*.json.tmp.*"))
        except OSError:
            return 0
        for dropping in droppings:
            pid = _tmp_owner_pid(dropping)
            if pid is not None and (pid == os.getpid() or _pid_alive(pid)):
                continue  # an in-flight writer; its os.replace will land
            try:
                dropping.unlink()
            except OSError:
                continue
            removed += 1
        self.tmp_collected += removed
        return removed

    def put(
        self, kind: str, digest: str, fingerprint: str, payload: Any
    ) -> Path | None:
        """Atomically publish *payload* under (*kind*, *digest*).

        Returns the entry path, or None when the disk refused (full,
        read-only, permissions): per the advisory contract that is one
        stderr warning plus the ``put_errors`` counter, never an
        exception — the campaign keeps its results in memory and moves on.
        """
        from repro.campaign.serialize import payload_checksum

        path = self.entry_path(kind, digest)
        document = {
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint,
            "kind": kind,
            "digest": digest,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._collect_stale_tmp(path.parent)
            tmp.write_text(
                json.dumps(document, sort_keys=True) + "\n", encoding="utf-8"
            )
            os.replace(tmp, path)
        except OSError as exc:
            self.put_errors += 1
            if not self._warned_degraded:
                self._warned_degraded = True
                _advise(
                    f"degraded: cannot publish {path.name} ({exc}); "
                    f"results stay in memory only"
                )
            try:
                tmp.unlink()
            except OSError:
                pass
            return None
        return path

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry *and* stale temp file; returns the number removed.

        Unlike :meth:`put`'s opportunistic pass, ``clear`` collects every
        ``*.tmp.<pid>`` dropping regardless of writer liveness — it is the
        "wipe the cache" operation.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        victims = sorted(self.root.rglob("*.json")) + sorted(
            self.root.rglob("*.json.tmp.*")
        )
        for path in victims:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # non-empty (foreign files): keep
        return removed

    def __len__(self) -> int:
        """Entry count (temp droppings excluded)."""
        return len(list(self.root.rglob("*.json"))) if self.root.is_dir() else 0


_default: ResultStore | None = None


def resolve_cache_root() -> str | None:
    """The configured store directory, or None when disabled by env."""
    if os.environ.get("REPRO_DISK_CACHE", "").strip().lower() in _FALSY:
        return None
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def default_store() -> ResultStore | None:
    """The process-wide store for the configured root (None when disabled).

    Re-resolves the environment on every call so tests can repoint the
    store; the instance (and its hit/miss counters) is reused while the
    root stays put.
    """
    global _default
    root = resolve_cache_root()
    if root is None:
        return None
    if _default is None or str(_default.root) != str(Path(root)):
        _default = ResultStore(root)
    return _default


def reset_default_store() -> None:
    """Drop the memoized default store (tests repointing REPRO_CACHE_DIR)."""
    global _default
    _default = None
