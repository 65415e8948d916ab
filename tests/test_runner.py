"""Tests for the parallel experiment runner and its persistent cache.

The load-bearing guarantees:

* determinism -- ``repro run --jobs N`` produces bit-identical results
  and reports to the serial path, for any N and any cache state;
* cache correctness -- keys cover the full result identity (context
  knobs plus every cell field), entries round-trip exactly, and corrupt
  entries degrade to misses, never errors;
* observability -- the run summary's accounting (cells, simulated,
  hits) matches what actually happened, because the acceptance check
  "warm re-run simulates nothing" reads it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal

import pytest

from repro.core.metrics import SimulationResult
from repro.errors import ExperimentError, ReproError
from repro.experiments.common import ExperimentContext
from repro.predictors.collisions import CollisionCounts
from repro.experiments.registry import EXPERIMENT_IDS
from repro.runner import (
    CHARACTERIZE,
    CLASSIFY,
    DRIFT,
    FRONTEND,
    Cell,
    CellExecutor,
    ResultCache,
    execute_cell,
    execute_cells,
    resolve_hints,
    run_experiments,
)
from repro.runner import engine

TINY = dict(trace_length=3_000, site_scale=0.02, seed=11)


def tiny_context() -> ExperimentContext:
    return ExperimentContext(**TINY)


def some_cells() -> list[Cell]:
    return [
        Cell.make("gcc", "gshare", 1024),
        Cell.make("gcc", "gshare", 1024, scheme="static_95"),
        Cell.make("go", "bimodal", 512),
        Cell.make("go", "gshare", 512, scheme="static_acc"),
        Cell.make("compress", "gshare", 512, track_collisions=True),
    ]


class TestCell:
    def test_hashable_and_usable_as_dict_key(self):
        a = Cell.make("gcc", "gshare", 1024, scheme="static_95")
        b = Cell.make("gcc", "gshare", 1024, scheme="static_95")
        assert a == b and hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1

    def test_predictor_kwargs_normalized_to_sorted_pairs(self):
        a = Cell.make("gcc", "gshare", 1024,
                      predictor_kwargs={"history_length": 4})
        b = Cell.make("gcc", "gshare", 1024,
                      predictor_kwargs={"history_length": 4})
        assert a == b
        assert a.predictor_kwargs == (("history_length", 4),)

    def test_pickle_roundtrip(self):
        cell = Cell.make("gcc", "gshare", 1024, scheme="static_acc",
                         predictor_kwargs={"history_length": 6})
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_key_fields_cover_context_and_cell(self):
        ctx = tiny_context()
        cell = Cell.make("gcc", "gshare", 1024)
        fields = cell.key_fields(ctx)
        assert fields["seed"] == ctx.seed
        assert fields["trace_length"] == ctx.trace_length
        assert fields["site_scale"] == ctx.site_scale
        assert fields["program"] == "gcc"
        assert fields["scheme"] == "none"

    def test_hint_key_ignores_predictor_for_bias_only_schemes(self):
        ctx = tiny_context()
        gshare = Cell.make("gcc", "gshare", 1024, scheme="static_95")
        gskew = Cell.make("gcc", "2bcgskew", 8192, scheme="static_95")
        assert gshare.hint_key_fields(ctx) == gskew.hint_key_fields(ctx)

    def test_hint_key_includes_predictor_for_accuracy_schemes(self):
        ctx = tiny_context()
        small = Cell.make("gcc", "gshare", 1024, scheme="static_acc")
        large = Cell.make("gcc", "gshare", 4096, scheme="static_acc")
        assert small.hint_key_fields(ctx) != large.hint_key_fields(ctx)


class TestResultCache:
    def test_result_roundtrip_is_exact(self, tmp_path):
        ctx = tiny_context()
        cache = ResultCache(str(tmp_path))
        cell = Cell.make("compress", "gshare", 512, track_collisions=True)
        result = execute_cell(ctx, cell)
        cache.put_result(ctx, cell, result)
        restored = cache.get_result(ctx, cell)
        assert restored is not None
        assert restored.to_dict() == result.to_dict()
        assert restored.collisions == result.collisions

    def test_miss_then_hit_counters(self, tmp_path):
        ctx = tiny_context()
        cache = ResultCache(str(tmp_path))
        cell = Cell.make("gcc", "bimodal", 256)
        assert cache.get_result(ctx, cell) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put_result(ctx, cell, execute_cell(ctx, cell))
        assert cache.get_result(ctx, cell) is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_key_sensitivity(self, tmp_path):
        """Any change to context knobs or cell fields changes the key."""
        cache = ResultCache(str(tmp_path))
        base_ctx = tiny_context()
        base = Cell.make("gcc", "gshare", 1024, scheme="static_95")
        baseline = cache.result_key(base_ctx, base)
        variants = [
            (ExperimentContext(trace_length=4_000, site_scale=0.02, seed=11), base),
            (ExperimentContext(trace_length=3_000, site_scale=0.03, seed=11), base),
            (ExperimentContext(trace_length=3_000, site_scale=0.02, seed=12), base),
            (base_ctx, Cell.make("go", "gshare", 1024, scheme="static_95")),
            (base_ctx, Cell.make("gcc", "bimodal", 1024, scheme="static_95")),
            (base_ctx, Cell.make("gcc", "gshare", 2048, scheme="static_95")),
            (base_ctx, Cell.make("gcc", "gshare", 1024, scheme="static_acc")),
            (base_ctx, Cell.make("gcc", "gshare", 1024, scheme="static_95",
                                 cutoff=0.99)),
            (base_ctx, Cell.make("gcc", "gshare", 1024, scheme="static_95",
                                 profile_input="train")),
            (base_ctx, Cell.make("gcc", "gshare", 1024, scheme="static_95",
                                 track_collisions=True)),
            (base_ctx, Cell.make("gcc", "gshare", 1024, scheme="static_95",
                                 predictor_kwargs={"history_length": 3})),
        ]
        keys = {cache.result_key(ctx, cell) for ctx, cell in variants}
        assert baseline not in keys
        assert len(keys) == len(variants)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        ctx = tiny_context()
        cache = ResultCache(str(tmp_path))
        cell = Cell.make("gcc", "bimodal", 256)
        cache.put_result(ctx, cell, execute_cell(ctx, cell))
        key = cache.result_key(ctx, cell)
        path = tmp_path / key[:2] / (key + ".json")
        path.write_text("{ torn write", encoding="utf-8")
        assert cache.get_result(ctx, cell) is None

    def test_malformed_payload_is_a_miss(self, tmp_path):
        ctx = tiny_context()
        cache = ResultCache(str(tmp_path))
        cell = Cell.make("gcc", "bimodal", 256)
        cache.put_result(ctx, cell, execute_cell(ctx, cell))
        key = cache.result_key(ctx, cell)
        path = tmp_path / key[:2] / (key + ".json")
        path.write_text('{"result": {"program_name": "gcc"}}',
                        encoding="utf-8")
        assert cache.get_result(ctx, cell) is None

    def test_hints_shared_through_cache(self, tmp_path):
        ctx = tiny_context()
        cache = ResultCache(str(tmp_path))
        cell = Cell.make("gcc", "gshare", 1024, scheme="static_95")
        first = resolve_hints(ctx, cell, cache=cache)
        # A context with no memoized state must reload from the cache
        # and see the identical selection.
        fresh = tiny_context()
        second = resolve_hints(fresh, cell, cache=cache)
        assert first is not None and second is not None
        assert second.to_json() == first.to_json()

    def test_concurrent_writers_to_one_key_never_corrupt(self, tmp_path):
        # Regression: the temp-file name used to be {path}.{pid}.tmp,
        # identical for every thread in a process, so two concurrent
        # writers could unlink each other's half-written file and one
        # os.replace would fail or install a torn entry.  With per-call
        # unique temp names every interleaving leaves a complete entry.
        import threading

        cache = ResultCache(str(tmp_path))
        payloads = [{"result": {"n": i}, "key": {}} for i in range(8)]
        errors = []

        def writer(payload):
            try:
                for _ in range(50):
                    cache._write("aa" + "0" * 62, payload)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        entry = cache._read("aa" + "0" * 62)
        assert entry in payloads
        # No orphaned temp files left behind.
        leftovers = list((tmp_path / "aa").glob("*.tmp"))
        assert leftovers == []


class TestSimulationResultSerialization:
    def test_roundtrip_with_collisions_and_metadata(self):
        result = SimulationResult(
            "gcc", "ref", "gshare", "static_95", 1024, 100, 1000, 7,
            static_branches=40, static_mispredictions=2,
            collisions=CollisionCounts(lookups=90, collisions=12,
                                       constructive=3, destructive=9),
            metadata={"static_hint_count": 5},
        )
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored == result

    def test_malformed_payload_raises_repro_error(self):
        with pytest.raises(ReproError):
            SimulationResult.from_dict({"program_name": "gcc"})
        with pytest.raises(ReproError):
            SimulationResult.from_dict(
                {"program_name": "gcc", "input_name": "ref",
                 "predictor_name": "x", "scheme": "none",
                 "size_bytes": 1, "branches": "many", "instructions": 1,
                 "mispredictions": 0, "static_branches": 0,
                 "static_mispredictions": 0}
            )


class TestCellExecutor:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ExperimentError):
            CellExecutor(tiny_context(), jobs=0)

    def test_serial_matches_direct_execution(self):
        ctx = tiny_context()
        cells = some_cells()
        results = CellExecutor(ctx, jobs=1).execute(cells)
        assert list(results) == cells
        for cell in cells:
            direct = execute_cell(tiny_context(), cell)
            assert results[cell].to_dict() == direct.to_dict()

    def test_duplicate_cells_simulated_once(self):
        ctx = tiny_context()
        cell = Cell.make("gcc", "bimodal", 256)
        executor = CellExecutor(ctx, jobs=1)
        results = executor.execute([cell, cell, cell])
        assert list(results) == [cell]
        assert executor.summary.simulated == 1

    def test_parallel_bit_identical_to_serial(self):
        cells = some_cells()
        serial = CellExecutor(tiny_context(), jobs=1).execute(cells)
        parallel = CellExecutor(tiny_context(), jobs=4).execute(cells)
        assert list(parallel) == list(serial)
        for cell in cells:
            assert parallel[cell].to_dict() == serial[cell].to_dict()

    def test_warm_cache_simulates_nothing(self, tmp_path):
        cells = some_cells()
        cold = CellExecutor(tiny_context(), jobs=2,
                            cache=ResultCache(str(tmp_path)))
        cold_results = cold.execute(cells)
        assert cold.summary.simulated == len(cells)

        warm = CellExecutor(tiny_context(), jobs=2,
                            cache=ResultCache(str(tmp_path)))
        warm_results = warm.execute(cells)
        assert warm.summary.simulated == 0
        assert warm.summary.cache_hits == len(cells)
        assert warm.summary.hit_rate == 1.0
        for cell in cells:
            assert warm_results[cell].to_dict() == cold_results[cell].to_dict()

    def test_summary_accounting(self):
        ctx = tiny_context()
        executor = CellExecutor(ctx, jobs=1)
        results = executor.execute(some_cells())
        summary = executor.summary
        assert summary.cells == len(results)
        assert summary.simulated == len(results)
        assert summary.branches_simulated == sum(
            r.branches for r in results.values()
        )
        text = summary.describe()
        assert "hit-rate" in text and "branches/s" in text


class TestExecuteCells:
    def test_env_jobs_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ExperimentError):
            execute_cells(tiny_context(), [Cell.make("gcc", "bimodal", 256)])

    def test_env_cache_dir_enables_caching(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cell = Cell.make("gcc", "bimodal", 256)
        execute_cells(tiny_context(), [cell])
        # The entry must now exist for an explicit cache handle.
        cache = ResultCache(str(tmp_path))
        assert cache.get_result(tiny_context(), cell) is not None

    def test_static_hint_count_metadata(self):
        ctx = tiny_context()
        cell = Cell.make("gcc", "gshare", 1024, scheme="static_95")
        results = execute_cells(ctx, [cell])
        hints = ctx.hints("gcc", "static_95")
        assert results[cell].metadata["static_hint_count"] == hints.static_count()


class TestRunExperiments:
    """The PR's acceptance criteria, as regression tests."""

    EXPERIMENT_IDS = ("figure1", "figure7")

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError):
            run_experiments(["figure99"], ctx=tiny_context())

    def test_no_ids_raises(self):
        with pytest.raises(ExperimentError):
            run_experiments([], ctx=tiny_context())

    def test_parallel_bit_identical_to_serial(self):
        serial, _ = run_experiments(list(self.EXPERIMENT_IDS),
                                    ctx=tiny_context(), jobs=1)
        parallel, summary = run_experiments(list(self.EXPERIMENT_IDS),
                                            ctx=tiny_context(), jobs=4)
        assert summary.jobs == 4
        for experiment_id in self.EXPERIMENT_IDS:
            assert (parallel[experiment_id].render()
                    == serial[experiment_id].render())

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        cold, cold_summary = run_experiments(
            list(self.EXPERIMENT_IDS), ctx=tiny_context(), jobs=2,
            cache=ResultCache(str(tmp_path)),
        )
        assert cold_summary.simulated == cold_summary.cells > 0

        warm, warm_summary = run_experiments(
            list(self.EXPERIMENT_IDS), ctx=tiny_context(), jobs=2,
            cache=ResultCache(str(tmp_path)),
        )
        assert warm_summary.simulated == 0
        assert warm_summary.hit_rate == 1.0
        for experiment_id in self.EXPERIMENT_IDS:
            assert (warm[experiment_id].render()
                    == cold[experiment_id].render())

    def test_shared_cells_across_ids_pay_once(self):
        # figure1 (gshare sweep) and figure13 share nothing, but an id
        # requested twice must not double-simulate.
        _, summary = run_experiments(["figure1", "figure1"],
                                     ctx=tiny_context(), jobs=1)
        from repro.experiments.figures_gshare import cells_program
        expected = len(cells_program(tiny_context(), "go"))
        assert summary.cells == expected
        assert summary.simulated == expected

    def test_profiling_experiment_runs_as_cells(self):
        reports, summary = run_experiments(["table5"], ctx=tiny_context())
        assert reports["table5"].experiment_id == "table5"
        assert summary.cells == summary.profiled == 6
        assert summary.simulated == summary.branches_simulated == 0

    def test_second_run_of_every_id_computes_nothing(self, tmp_path):
        ids = list(EXPERIMENT_IDS)
        cold, cold_summary = run_experiments(
            ids, ctx=tiny_context(), jobs=2, cache=ResultCache(str(tmp_path)),
        )
        assert cold_summary.simulated > 0 and cold_summary.profiled > 0
        warm_ctx = tiny_context()
        warm, warm_summary = run_experiments(
            ids, ctx=warm_ctx, jobs=2, cache=ResultCache(str(tmp_path)),
        )
        assert warm_summary.simulated == warm_summary.profiled == 0
        assert warm_ctx._traces == {}  # no report synthesized a trace
        assert warm_summary.cache_hits == warm_summary.cells
        assert "(0 simulated, 0 profiled" in warm_summary.describe()
        for experiment_id in ids:
            assert (warm[experiment_id].render()
                    == cold[experiment_id].render())


def profiling_cells() -> list[Cell]:
    """Cells of every profiling kind, as the experiment modules declare
    them."""
    return [
        Cell.profiling(CHARACTERIZE, "gcc", measure_input="train"),
        Cell.profiling(CHARACTERIZE, "go"),
        Cell.profiling(DRIFT, "perl", profile_input="train"),
        Cell.profiling(DRIFT, "compress", profile_input="train"),
        Cell.make("gcc", "bimodal", 8192, kind=CLASSIFY),
        Cell.make("go", "gshare", 8192, kind=CLASSIFY),
        Cell.make("gcc", "gshare", 4096, scheme="static_acc", kind=FRONTEND),
        Cell.make("ijpeg", "gshare", 4096, scheme="static_95", kind=FRONTEND),
    ]


class TestProfilingKinds:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown cell kind"):
            Cell.profiling("bogus", "gcc")

    def test_parallel_bit_identical_to_serial(self):
        cells = profiling_cells()
        serial = CellExecutor(tiny_context(), jobs=1).execute(cells)
        parallel = CellExecutor(tiny_context(), jobs=2).execute(cells)
        assert list(parallel) == list(serial) == cells
        for cell in cells:
            assert type(parallel[cell]) is type(serial[cell])
            assert parallel[cell].to_dict() == serial[cell].to_dict()

    def test_results_round_trip_through_the_store(self, tmp_path):
        cells = profiling_cells()
        cold = CellExecutor(tiny_context(), jobs=1,
                            cache=ResultCache(str(tmp_path)))
        computed = cold.execute(cells)
        warm = CellExecutor(tiny_context(), jobs=1,
                            cache=ResultCache(str(tmp_path)))
        stored = warm.execute(cells)
        assert warm.summary.cache_hits == len(cells)
        for cell in cells:
            assert stored[cell] == computed[cell]

    def test_summary_counts_profiling_apart_from_simulation(self):
        executor = CellExecutor(tiny_context(), jobs=1)
        executor.execute(profiling_cells() + [Cell.make("gcc", "gshare", 512)])
        summary = executor.summary
        assert summary.profiled == len(profiling_cells())
        assert summary.simulated == 1
        assert summary.branches_simulated == tiny_context().trace_length
        assert summary.workers["main"].cells == summary.cells

    def test_frontend_hints_shared_with_simulation_cells(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        ctx = tiny_context()
        frontend = Cell.make("gcc", "gshare", 4096, scheme="static_acc",
                             kind=FRONTEND)
        execute_cell(ctx, frontend, cache=cache)
        simulate = Cell.make("gcc", "gshare", 4096, scheme="static_acc")
        assert cache.get_hints(ctx, simulate) is not None


def kill_worker_on(victim: Cell, marker: str | None):
    """An ``execute_cell`` that SIGKILLs its worker on ``victim``: once
    (creating ``marker``), or on every attempt when ``marker`` is None."""
    real = execute_cell

    def execute(ctx, cell, cache=None):
        if cell == victim and os.getpid() != PARENT_PID:
            if marker is None or not os.path.exists(marker):
                if marker is not None:
                    open(marker, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
        return real(ctx, cell, cache=cache)

    return execute


PARENT_PID = os.getpid()

#: The kill is injected by patching ``execute_cell`` in this process;
#: only workers forked from it inherit the patch.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="worker-kill injection needs forked pool workers",
)


@needs_fork
class TestPoolRecovery:
    """One dead worker degrades one batch, never the executor."""

    def test_worker_killed_mid_batch_is_retried_on_a_fresh_pool(
        self, tmp_path, monkeypatch
    ):
        cells = some_cells()
        expected = CellExecutor(tiny_context(), jobs=1).execute(cells)
        monkeypatch.setattr(engine, "execute_cell", kill_worker_on(
            cells[2], str(tmp_path / "killed-once")
        ))
        with CellExecutor(tiny_context(), jobs=2, persistent=True) as executor:
            results = executor.execute(cells)
            assert os.path.exists(tmp_path / "killed-once")
            for cell in cells:
                assert results[cell].to_dict() == expected[cell].to_dict()
            assert executor.summary.simulated == len(cells)
            # The next request runs on the rebuilt pool.
            follow_up = [Cell.make("perl", "gshare", 512),
                         Cell.make("perl", "bimodal", 512)]
            assert list(executor.execute(follow_up)) == follow_up

    def test_per_call_pool_also_retries(self, tmp_path, monkeypatch):
        cells = some_cells()
        monkeypatch.setattr(engine, "execute_cell", kill_worker_on(
            cells[0], str(tmp_path / "killed-once")
        ))
        results = CellExecutor(tiny_context(), jobs=2).execute(cells)
        assert list(results) == cells

    def test_repeated_breakage_fails_that_batch_only(self, monkeypatch):
        cells = some_cells()
        monkeypatch.setattr(engine, "execute_cell",
                            kill_worker_on(cells[1], None))
        with CellExecutor(tiny_context(), jobs=2, persistent=True) as executor:
            with pytest.raises(ReproError, match="worker pool broke twice"):
                executor.execute(cells)
            others = [cell for cell in cells if cell != cells[1]]
            results = executor.execute(others)
            assert list(results) == others


class TestContextPickling:
    def test_reduces_to_knobs(self):
        ctx = tiny_context()
        ctx.trace("gcc", "ref")  # populate memoized state
        clone = pickle.loads(pickle.dumps(ctx))
        assert (clone.trace_length, clone.site_scale, clone.seed) == (
            ctx.trace_length, ctx.site_scale, ctx.seed
        )
        assert clone._traces == {}
        # Rebuilt memoized state is bit-identical by the determinism
        # contract.
        assert clone.trace("gcc", "ref").outcomes == ctx.trace("gcc", "ref").outcomes
