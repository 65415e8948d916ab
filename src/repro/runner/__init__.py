"""Parallel experiment runner with a persistent result cache.

Every (program, predictor, size, scheme) cell of the paper's tables and
figures is an independent simulation; this package schedules those cells
across worker processes and memoizes their results on disk so re-runs
are incremental:

* :mod:`repro.runner.cells`  -- :class:`Cell` (the declared unit of
  work, of one of the :data:`CELL_KINDS`: simulation or profiling) and
  :func:`execute_cell` (its pure executor);
* :mod:`repro.runner.cache`  -- :class:`ResultCache`, content-addressed
  by the full (seed, trace length, site scale, cell) identity;
* :mod:`repro.runner.store`  -- :class:`ShardedResultStore`, the
  sharded, bounded, lock-coordinated storage layer under the cache;
* :mod:`repro.runner.engine` -- :class:`CellExecutor` process pool and
  the :class:`RunSummary` observability record;
* :mod:`repro.runner.api`    -- :func:`execute_cells` (what experiment
  modules call) and :func:`run_experiments` (what ``repro run`` calls).
"""

from repro.runner.api import default_jobs, execute_cells, run_experiments
from repro.runner.cache import CACHE_FORMAT_VERSION, ResultCache, default_cache_dir
from repro.runner.cells import (
    CELL_KINDS,
    CHARACTERIZE,
    CLASSIFY,
    DRIFT,
    FRONTEND,
    SIMULATE,
    STABLE_SCHEME,
    Cell,
    execute_cell,
    resolve_hints,
)
from repro.runner.engine import CellExecutor, RunSummary, WorkerStats
from repro.runner.store import ShardedResultStore, default_cache_max_bytes

__all__ = [
    "CELL_KINDS",
    "CHARACTERIZE",
    "CLASSIFY",
    "DRIFT",
    "FRONTEND",
    "SIMULATE",
    "Cell",
    "CellExecutor",
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "RunSummary",
    "STABLE_SCHEME",
    "ShardedResultStore",
    "WorkerStats",
    "default_cache_dir",
    "default_cache_max_bytes",
    "default_jobs",
    "execute_cell",
    "execute_cells",
    "resolve_hints",
    "run_experiments",
]
