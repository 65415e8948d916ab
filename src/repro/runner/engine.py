"""Process-pool execution engine for experiment cells.

The parent process resolves cache hits up front, schedules only the
missing cells across worker processes, writes the returned results back
to the cache, and hands the caller a results dict in declared cell
order.  Cells of every kind (simulation and profiling alike) take this
one path.  Workers are long-lived: each builds one
:class:`~repro.experiments.common.ExperimentContext` at startup (from
the parent context's pickled knobs) and memoizes traces and profiles
across every cell it executes, like the serial path does in the parent.

Determinism: a cell's result is a pure function of (context knobs,
cell); scheduling order, worker count, and cache state only change *who*
computes a result, never its value.  A pool broken by a dead worker is
rebuilt once and the cells it had not returned are retried; a second
breakage fails that batch only, and the next batch gets a fresh pool.
Timing instrumentation is observability-only -- it is reported in the
run summary and never enters a result, which is why the
``perf_counter`` reads below carry DET002 suppressions instead of being
design violations.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext
from repro.runner.cache import ResultCache
from repro.runner.cells import SIMULATE, Cell, execute_cell, result_from_dict

__all__ = ["CellExecutor", "RunSummary", "WorkerStats"]


@dataclass(slots=True)
class WorkerStats:
    """Throughput accounting for one worker (or the parent, serially).

    ``cells`` and ``seconds`` cover every kind; ``branches`` only the
    simulated ones.
    """

    label: str
    cells: int = 0
    branches: int = 0
    seconds: float = 0.0

    @property
    def branches_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.branches / self.seconds


@dataclass(slots=True)
class RunSummary:
    """Observability record for one runner invocation.

    ``simulated`` and ``branches_simulated`` count measurement
    (``simulate``) cells only; ``profiled`` counts computed cells of
    every other kind.  Cache hits and the hit rate cover all kinds.
    """

    jobs: int = 1
    cells: int = 0
    batches: int = 0
    simulated: int = 0
    profiled: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    store_bytes: int | None = None
    wall_seconds: float = 0.0
    branches_simulated: int = 0
    workers: dict[str, WorkerStats] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Cache hits as a fraction of all cells this run touched."""
        if self.cells == 0:
            return 0.0
        return self.cache_hits / self.cells

    def record_execution(self, label: str, cell: Cell, result,
                         seconds: float) -> None:
        stats = self.workers.get(label)
        if stats is None:
            stats = self.workers[label] = WorkerStats(label=label)
        stats.cells += 1
        stats.seconds += seconds
        if cell.kind != SIMULATE:
            self.profiled += 1
            return
        stats.branches += result.branches
        self.simulated += 1
        self.branches_simulated += result.branches

    def describe(self) -> str:
        """Multi-line human summary for the CLI."""
        lines = [
            f"cells: {self.cells} "
            f"({self.simulated} simulated, {self.profiled} profiled, "
            f"{self.cache_hits} cache hits, hit-rate {self.hit_rate:.1%})",
            f"wall time: {self.wall_seconds:.2f}s with {self.jobs} job(s); "
            f"{self.branches_simulated} branches simulated",
        ]
        if self.store_bytes is not None:
            lines.append(
                f"store: {self.cache_hits} hits, {self.cache_misses} misses, "
                f"{self.cache_evictions} evictions, {self.store_bytes} bytes"
            )
        for label in sorted(self.workers):
            stats = self.workers[label]
            lines.append(
                f"  worker {label}: {stats.cells} cells, "
                f"{stats.branches} branches, "
                f"{stats.branches_per_second:,.0f} branches/s"
            )
        return "\n".join(lines)


# -- worker side -----------------------------------------------------------

_WORKER_GLOBALS = ("_WORKER_CTX", "_WORKER_CACHE")
"""Module globals a worker-reachable function may assign.

This is the declared exception to the worker-purity contract (lint rule
PAR001): the pool initializer stores each worker's context and cache
handle once, at worker startup, before any cell executes.  Everything
else reachable from ``execute_cell``/``_worker_run`` must stay free of
module-state writes — per-cell global mutation would make results
depend on which cells a worker happened to receive, breaking the
parallel==serial bit-identity the experiments rely on.  Extending this
tuple is a contract change, not a suppression: only worker-lifetime
state that is written before the first cell belongs here.
"""

_WORKER_CTX: ExperimentContext | None = None
_WORKER_CACHE: ResultCache | None = None


def _worker_init(ctx: ExperimentContext, cache_root: str | None) -> None:
    """Pool initializer: one context (and cache handle) per worker."""
    global _WORKER_CTX, _WORKER_CACHE
    _WORKER_CTX = ctx
    _WORKER_CACHE = ResultCache(cache_root) if cache_root else None


def _worker_run(cell: Cell) -> tuple[Cell, dict, float, str]:
    """Execute one cell in a worker; returns a picklable record."""
    assert _WORKER_CTX is not None, "worker used before _worker_init"
    start = time.perf_counter()  # repro: allow[DET002] -- observability only, never enters a result
    result = execute_cell(_WORKER_CTX, cell, cache=_WORKER_CACHE)
    elapsed = time.perf_counter() - start  # repro: allow[DET002] -- observability only
    return cell, result.to_dict(), elapsed, f"pid-{os.getpid()}"


# -- parent side -----------------------------------------------------------

class CellExecutor:
    """Schedules cells over a cache and (optionally) a process pool.

    By default each :meth:`execute` call builds and tears down its own
    process pool — the right shape for one-shot CLI runs, where worker
    startup is amortized over the whole figure.  With
    ``persistent=True`` the pool is built on first parallel need and
    reused across every subsequent call until :meth:`close`; the
    service layer depends on this, since paying worker startup (and
    re-memoizing traces) per batch would dwarf the batches themselves.
    The executor is also a context manager: ``with`` closes the pool on
    exit either way.
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        jobs: int = 1,
        cache: ResultCache | None = None,
        persistent: bool = False,
    ):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.ctx = ctx
        self.jobs = jobs
        self.cache = cache
        self.persistent = persistent
        self.summary = RunSummary(jobs=jobs)
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> CellExecutor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the persistent pool (idempotent).

        In-flight work finishes first (``wait=True``): the service
        calls this during graceful drain, after the scheduler has
        stopped feeding new batches, so a worker mid-simulation gets to
        write its result back before the process exits.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _drop_pool(self) -> None:
        """Discard a broken persistent pool; the next use builds anew."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, built on first use at full ``jobs`` width.

        Unlike the per-call path, width is not trimmed to the batch
        size: the pool outlives this batch, and later (larger) batches
        should find every worker already warm.
        """
        if self._pool is None:
            cache_root = self.cache.root if self.cache is not None else None
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=(self.ctx, cache_root),
            )
        return self._pool

    def execute(self, cells: list[Cell]) -> dict[Cell, object]:
        """Execute cells (deduplicated), returning ``{cell: result}``.

        The returned dict is in first-declared cell order regardless of
        which worker finished when, so downstream rendering is
        order-deterministic.
        """
        start = time.perf_counter()  # repro: allow[DET002] -- observability only
        ordered = list(dict.fromkeys(cells))
        results: dict[Cell, object] = {}
        to_run: list[Cell] = []
        for cell in ordered:
            cached = self.cache.get_result(self.ctx, cell) if self.cache else None
            if cached is not None:
                results[cell] = cached
            else:
                to_run.append(cell)

        if len(to_run) > 1 and (self.jobs > 1 or self._pool is not None):
            self._execute_parallel(to_run, results)
        else:
            self._execute_serial(to_run, results)

        self.summary.cells += len(ordered)
        self.summary.batches += 1
        if self.cache is not None:
            self.summary.cache_hits = self.cache.hits
            self.summary.cache_misses = self.cache.misses
            self.summary.cache_evictions = self.cache.evictions
            self.summary.store_bytes = self.cache.store_bytes()
        self.summary.wall_seconds += (
            time.perf_counter() - start  # repro: allow[DET002] -- observability only
        )
        return {cell: results[cell] for cell in ordered}

    def _execute_serial(
        self, to_run: list[Cell], results: dict[Cell, object]
    ) -> None:
        for cell in to_run:
            start = time.perf_counter()  # repro: allow[DET002] -- observability only
            result = execute_cell(self.ctx, cell, cache=self.cache)
            elapsed = time.perf_counter() - start  # repro: allow[DET002] -- observability only
            if self.cache is not None:
                self.cache.put_result(self.ctx, cell, result)
            results[cell] = result
            self.summary.record_execution("main", cell, result, elapsed)

    def _execute_parallel(
        self, to_run: list[Cell], results: dict[Cell, object]
    ) -> None:
        """Run cells on a pool, surviving one broken pool per batch.

        A worker that dies (OOM kill, crash) breaks the whole pool:
        every pending future fails and the persistent pool refuses new
        work.  Results that came back before the breakage are kept; a
        fresh pool retries the rest once.  A second breakage fails this
        batch only -- the broken pool is dropped either way, so the
        next batch starts on a fresh one.
        """
        try:
            self._run_pool(to_run, results)
        except BrokenProcessPool:
            self._drop_pool()
            retry = [cell for cell in to_run if cell not in results]
            try:
                self._run_pool(retry, results)
            except BrokenProcessPool as exc:
                self._drop_pool()
                raise ExperimentError(
                    f"worker pool broke twice; {len(retry)} cell(s) of "
                    f"this batch were not computed"
                ) from exc

    def _run_pool(
        self, to_run: list[Cell], results: dict[Cell, object]
    ) -> None:
        if self.persistent:
            self._drain_pool(self._ensure_pool(), to_run, results)
            return
        cache_root = self.cache.root if self.cache is not None else None
        workers = min(self.jobs, len(to_run))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(self.ctx, cache_root),
        ) as pool:
            self._drain_pool(pool, to_run, results)

    def _drain_pool(
        self,
        pool: ProcessPoolExecutor,
        to_run: list[Cell],
        results: dict[Cell, object],
    ) -> None:
        pending = {pool.submit(_worker_run, cell) for cell in to_run}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                cell, payload, elapsed, label = future.result()
                result = result_from_dict(cell, payload)
                if self.cache is not None:
                    self.cache.put_result(self.ctx, cell, result)
                results[cell] = result
                self.summary.record_execution(label, cell, result, elapsed)
