"""Content-hash-keyed analysis cache and git ``--changed`` discovery.

Project-wide analysis (the PAR001 call graph walks every linted AST)
costs linear-in-tree time on every invocation; as the tree grows that
turns "lint on save" into "lint on coffee break".  Two mechanisms keep
warm runs cheap, both keyed on *content*, never on mtimes:

**Per-file entries** cache each file's file-rule findings under
``(sha256 of source, rule signature)``.  Editing one module re-analyzes
that module; everything else replays from the cache.  Project rules
cannot be cached per file (their input is the whole set), so:

**A full-set entry** caches the complete, post-suppression finding list
under the hash of every file's content hash plus the rule signature.
A fully warm run — same files, same bytes, same rules — replays the
entire result without parsing a single file.

The *rule signature* folds in the sorted rule ids **and**
:data:`CACHE_FORMAT_VERSION`; bump the version whenever rule or engine
semantics change so stale caches invalidate themselves.  Corrupt or
mismatched cache files are treated as empty, mirroring
:mod:`repro.runner.cache`: a cache must never be able to *cause* a
wrong report.

:func:`git_changed_paths` implements ``repro lint --changed``: the
linted set narrows to ``.py`` files git reports as modified, staged, or
untracked, so pre-commit latency scales with the diff, not the tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import LintError
from repro.lint.findings import Finding, Severity
from repro.utils.io import atomic_write_text

__all__ = [
    "AnalysisCache",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_PATH",
    "content_hash",
    "rule_signature",
    "git_changed_paths",
]

CACHE_FORMAT_VERSION = 7
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rule_signature(rule_ids: Iterable[str]) -> str:
    text = json.dumps(
        {"version": CACHE_FORMAT_VERSION, "rules": sorted(rule_ids)}
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finding_to_dict(finding: Finding) -> dict:
    return finding.to_dict()


def _finding_from_dict(entry: dict) -> Finding:
    return Finding(
        path=entry["path"], line=int(entry["line"]), col=int(entry["col"]),
        rule=entry["rule"], severity=Severity(entry["severity"]),
        message=entry["message"],
    )


class AnalysisCache:
    """One JSON file of per-file and full-set finding entries."""

    def __init__(self, path: str | os.PathLike = DEFAULT_CACHE_PATH):
        self.path = Path(path)
        self.file_hits = 0
        self.file_misses = 0
        self.full_hit = False
        self._data = self._load()

    def _load(self) -> dict:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {"files": {}, "full": {}}
        if (not isinstance(payload, dict)
                or payload.get("version") != CACHE_FORMAT_VERSION
                or not isinstance(payload.get("files"), dict)
                or not isinstance(payload.get("full"), dict)):
            return {"files": {}, "full": {}}  # stale format: start over
        return {"files": payload["files"], "full": payload["full"]}

    def save(self) -> None:
        """Persist atomically; cache write failures are non-fatal by design
        (the next run just re-analyzes)."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "files": self._data["files"],
            "full": self._data["full"],
        }
        try:
            atomic_write_text(os.fspath(self.path),
                              json.dumps(payload, sort_keys=True))
        except OSError:  # pragma: no cover - disk-full/permission paths
            pass

    # -- per-file entries (file-rule findings) ---------------------------

    def _file_key(self, display: str, source_hash: str, signature: str) -> str:
        return f"{display.replace(os.sep, '/')}\x00{source_hash}\x00{signature}"

    def get_file(self, display: str, source_hash: str,
                 signature: str) -> list[Finding] | None:
        entry = self._data["files"].get(
            self._file_key(display, source_hash, signature)
        )
        if entry is None:
            self.file_misses += 1
            return None
        try:
            findings = [_finding_from_dict(e) for e in entry]
        except (KeyError, TypeError, ValueError):
            self.file_misses += 1
            return None  # corrupt entry == miss
        self.file_hits += 1
        return findings

    def put_file(self, display: str, source_hash: str, signature: str,
                 findings: Sequence[Finding]) -> None:
        key = self._file_key(display, source_hash, signature)
        # Drop superseded entries for the same file (older content hashes)
        # so the cache tracks the working tree instead of growing forever.
        prefix = f"{display.replace(os.sep, '/')}\x00"
        stale = [k for k in self._data["files"]
                 if k.startswith(prefix) and k != key]
        for k in stale:
            del self._data["files"][k]
        self._data["files"][key] = [_finding_to_dict(f) for f in findings]

    # -- full-set entry (the complete post-suppression report) -----------

    @staticmethod
    def set_key(file_hashes: Sequence[tuple[str, str]],
                signature: str) -> str:
        text = json.dumps({"files": sorted(file_hashes), "sig": signature})
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get_full(self, set_key: str) -> list[Finding] | None:
        entry = self._data["full"].get(set_key)
        if entry is None:
            return None
        try:
            findings = [_finding_from_dict(e) for e in entry]
        except (KeyError, TypeError, ValueError):
            return None
        self.full_hit = True
        return findings

    def put_full(self, set_key: str, findings: Sequence[Finding]) -> None:
        # One full-set entry is enough: it exists to short-circuit the
        # "nothing changed" rerun, not to be a history.
        self._data["full"] = {set_key: [_finding_to_dict(f) for f in findings]}


def git_changed_paths(
    paths: Sequence[str | os.PathLike],
    repo_root: str | os.PathLike | None = None,
) -> list[Path]:
    """``.py`` files git sees as modified/staged/untracked under ``paths``.

    Paths are resolved and compared as ancestors: ``--changed src/repro``
    keeps exactly the changed files inside ``src/repro``.  The result is
    sorted, so a ``--changed`` run is as deterministic as a full one.
    """
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_root, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        raise LintError(
            f"--changed needs a git checkout: git status failed ({exc})"
        ) from exc
    root = Path(repo_root) if repo_root is not None else Path.cwd()
    scopes = [Path(p).resolve() for p in paths]
    changed: set[Path] = set()
    for line in proc.stdout.splitlines():
        if len(line) < 4 or line[:2] == "D " or line[1] == "D":
            continue  # deletions have nothing left to lint
        raw = line[3:]
        if " -> " in raw:  # rename: lint the destination
            raw = raw.split(" -> ", 1)[1]
        raw = raw.strip().strip('"')
        if not raw.endswith(".py"):
            continue
        path = (root / raw).resolve()
        if not path.is_file():
            continue
        for scope in scopes:
            if scope == path or scope in path.parents:
                changed.add(path)
                break
    return sorted(changed)
