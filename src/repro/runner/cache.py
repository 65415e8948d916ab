"""Persistent on-disk result cache for experiment cells.

Every cache entry is content-addressed: the key is the SHA-256 of the
canonical JSON of the cell's complete identity -- root seed, trace
length, site scale, program, measurement input, predictor, size, scheme,
shift policy, and the selection kwargs (see
:meth:`repro.runner.cells.Cell.key_fields`).  Changing *any* of those
produces a different key, so a cache can never hand back a result for a
different experiment; re-running an unchanged suite is pure hits.

Two entry kinds share one directory tree:

* ``result`` -- a cell's serialized result: a
  :class:`~repro.core.metrics.SimulationResult` for the measurement
  phase, or the result type of a profiling kind (see
  :data:`repro.runner.cells.CELL_KINDS`);
* ``hints`` -- a serialized :class:`~repro.staticpred.hints.HintAssignment`
  (the selection phase), so concurrent workers share selection work
  through the filesystem instead of through in-memory memoization that
  cannot cross a process boundary.

Storage is delegated to the sharded store
(:class:`repro.runner.store.ShardedResultStore`): entries are one JSON
file each, written atomically, fanned out by key prefix into shard
directories with per-shard manifests, advisory locks, and LRU eviction
under the ``REPRO_CACHE_MAX_BYTES`` budget.  A corrupt or truncated
entry reads as a miss, never as an error -- and is deleted on the spot
so the disk budget stays truthful.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ReproError
from repro.runner.cells import result_from_dict
from repro.runner.store import ShardedResultStore
from repro.staticpred.hints import HintAssignment
from repro.utils.env import env_str

__all__ = ["ResultCache", "default_cache_dir", "CACHE_FORMAT_VERSION"]

CACHE_FORMAT_VERSION = 1
"""Bumping this invalidates every existing entry (it feeds the key)."""

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The cache directory used when the CLI is not told otherwise."""
    return env_str(ENV_CACHE_DIR) or ".repro-cache"


def _canonical_key(kind: str, fields: dict) -> str:
    """SHA-256 hex digest of an entry's canonical identity."""
    payload = {"version": CACHE_FORMAT_VERSION, "kind": kind, **fields}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of cell results and hint databases.

    Hit/miss counters cover *results* only (the unit the run summary
    reports), of every cell kind; hint traffic is an internal sharing
    mechanism.
    """

    def __init__(self, root: str, max_bytes: int | None = None):
        self.root = root
        self.hits = 0
        self.misses = 0
        self._store = ShardedResultStore(root, max_bytes=max_bytes)

    # -- storage (delegated to the sharded store) ------------------------

    @property
    def evictions(self) -> int:
        """Entries this process evicted enforcing the size budget."""
        return self._store.evictions

    def store_bytes(self) -> int:
        """The store's accounted on-disk size in bytes."""
        return self._store.total_bytes()

    def _path(self, key: str) -> str:
        return self._store.entry_path(key)

    def _read(self, key: str) -> dict | None:
        return self._store.read(key)

    def _write(self, key: str, payload: dict) -> None:
        self._store.write(key, payload)

    # -- results ---------------------------------------------------------

    def result_key(self, ctx, cell) -> str:
        """The content hash identifying one cell's result."""
        return _canonical_key("result", cell.key_fields(ctx))

    def get_result(self, ctx, cell):
        """Stored result for a cell, or None (counts the hit/miss)."""
        payload = self._read(self.result_key(ctx, cell))
        if payload is None or "result" not in payload:
            self.misses += 1
            return None
        try:
            result = result_from_dict(cell, payload["result"])
        except ReproError:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put_result(self, ctx, cell, result) -> None:
        """Persist a cell's result (the key fields ride along for
        debuggability -- ``cat`` an entry and see what produced it)."""
        self._write(self.result_key(ctx, cell), {
            "key": cell.key_fields(ctx),
            "result": result.to_dict(),
        })

    # -- hint databases (selection phase) --------------------------------

    def hint_key(self, ctx, cell) -> str:
        """The content hash identifying one cell's selection result."""
        return _canonical_key("hints", cell.hint_key_fields(ctx))

    def get_hints(self, ctx, cell) -> HintAssignment | None:
        payload = self._read(self.hint_key(ctx, cell))
        if payload is None or "hints" not in payload:
            return None
        try:
            return HintAssignment.from_json(payload["hints"])
        except ReproError:
            return None

    def put_hints(self, ctx, cell, hints: HintAssignment) -> None:
        self._write(self.hint_key(ctx, cell), {
            "key": cell.hint_key_fields(ctx),
            "hints": hints.to_json(),
        })
