"""Public runner API: experiment-level parallel execution.

Two entry points:

* :func:`execute_cells` -- what every cell-declaring experiment module
  calls from its serial ``run()``; honors the ``REPRO_JOBS`` /
  ``REPRO_CACHE_DIR`` environment knobs so ``repro experiment`` and the
  benchmark harness parallelize transparently, with no caller changes.
* :func:`run_experiments` -- the ``repro run`` engine: resolves each
  experiment id's declared cells, merges and deduplicates them (ids
  sharing configurations pay once), executes them through one
  :class:`~repro.runner.engine.CellExecutor`, then synthesizes every
  report from the shared results.  Every id declares cells: the
  profiling tables through the profiling cell kinds, ``summary`` as the
  union of its members' cells.

The registry import is deferred into the function bodies: experiment
modules import this module for :func:`execute_cells`, and the registry
imports the experiment modules, so a module-level import here would be
circular.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext
from repro.experiments.report import ExperimentReport
from repro.runner.cache import ENV_CACHE_DIR, ResultCache
from repro.runner.cells import Cell
from repro.runner.engine import CellExecutor, RunSummary
from repro.utils.env import env_int, env_str

__all__ = ["execute_cells", "run_experiments", "default_jobs"]

ENV_JOBS = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count used when the caller does not pass one (env knob)."""
    jobs = env_int(ENV_JOBS, 1, error=ExperimentError)
    if jobs < 1:
        raise ExperimentError(f"{ENV_JOBS} must be >= 1, got {jobs}")
    return jobs


def execute_cells(
    ctx: ExperimentContext,
    cells: list[Cell],
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> dict[Cell, object]:
    """Execute a cell list for one experiment.

    With no arguments beyond (ctx, cells) this is the serial in-process
    path the experiment runners have always had -- unless ``REPRO_JOBS``
    (worker count) or ``REPRO_CACHE_DIR`` (persistent cache location)
    are set, which upgrade every experiment run in the process, CLI and
    benchmark harness included.
    """
    if jobs is None:
        jobs = default_jobs()
    if cache is None:
        env_dir = env_str(ENV_CACHE_DIR)
        if env_dir:
            cache = ResultCache(env_dir)
    executor = CellExecutor(ctx, jobs=jobs, cache=cache)
    return executor.execute(cells)


def run_experiments(
    experiment_ids: list[str],
    ctx: ExperimentContext | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> tuple[dict[str, ExperimentReport], RunSummary]:
    """Run experiments through the parallel runner; reports + summary.

    Cells are collected from every requested id, deduplicated, and
    executed once; each report is then synthesized from the shared
    results.
    """
    from repro.experiments.registry import get_cells, synthesize

    if not experiment_ids:
        raise ExperimentError("no experiment ids given")
    if ctx is None:
        ctx = ExperimentContext()

    merged: list[Cell] = []
    for experiment_id in experiment_ids:
        merged.extend(get_cells(experiment_id)(ctx))  # raises on unknown ids

    executor = CellExecutor(ctx, jobs=jobs, cache=cache)
    results = executor.execute(merged)
    reports = {
        experiment_id: synthesize(experiment_id, ctx, results)
        for experiment_id in experiment_ids
    }
    return reports, executor.summary
