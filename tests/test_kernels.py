"""Differential tests for the fast simulation kernels.

The contract of :mod:`repro.kernels` is bit-identity with the
reference ``predict``/``update`` loop: same misprediction count, same
final counter tables, same history register, same ``_PREDICT_STATE``.
These tests enforce it differentially — every assertion runs the same
randomized trace through both paths and compares the complete
observable state, across the five kernel-backed predictor families,
bare and under a combined predictor with every history-shift policy,
with and without collision tagging, cold and warm starts, and the
degenerate trace lengths.
"""

from __future__ import annotations

import logging

import pytest

from repro.arch.isa import ShiftPolicy
from repro.core.combined import CombinedPredictor
from repro.core.simulator import simulate
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentContext
from repro.kernels import (
    KERNEL_MODES,
    numpy_available,
    try_fast_simulate,
    validate_kernel_mode,
)
from repro.profiling.accuracy import _measure_accuracy_scalar, measure_accuracy
from repro.profiling.collision_profile import (
    _fast_collision_records,
    _measure_collision_involvement_scalar,
    measure_collision_involvement,
)
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.ghist import GhistPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import TwoBcGskewPredictor
from repro.predictors.sizing import make_predictor
from repro.runner.cells import execute_cell
from repro.staticpred.hints import HintAssignment, HintBits
from repro.utils.rng import derive_seed, rng_from_seed
from repro.workloads.trace import BranchTrace

numpy = pytest.importorskip("numpy")


def random_trace(seed: int, length: int, sites: int = 37) -> BranchTrace:
    """A word-aligned random trace over a small, aliasing-prone window."""
    rng = rng_from_seed(seed)
    trace = BranchTrace(program_name="diff", input_name="ref")
    for _ in range(length):
        site = rng.randrange(sites)
        trace.site_indices.append(site)
        trace.addresses.append(0x4000 + site * 4)
        trace.outcomes.append(rng.random() < 0.6)
        trace.gaps.append(3)
    return trace


def random_hints(seed: int, static_fraction: float,
                 sites: int = 37) -> HintAssignment:
    """Static hints over :func:`random_trace`'s site window, with
    random directions and per-branch shift flags."""
    rng = rng_from_seed(seed)
    hints = HintAssignment("diff", "random")
    for site in range(sites):
        if rng.random() < static_fraction:
            hints.set(0x4000 + site * 4, HintBits(
                use_static=True,
                direction=rng.random() < 0.5,
                shift_history=rng.random() < 0.5,
            ))
    return hints


def warm_up(predictor, seed: int, length: int = 200) -> None:
    """Drive a predictor into a non-initial state via the reference loop."""
    simulate(random_trace(seed, length), predictor, kernel="reference")


def counter_tables(predictor) -> list:
    """A kernel-backed family's counter tables, in table-id order."""
    if isinstance(predictor, BiModePredictor):
        return [*predictor.direction_banks, predictor.choice]
    if isinstance(predictor, TwoBcGskewPredictor):
        return list(predictor.banks)
    return [predictor.table]


def observable_state(predictor) -> dict:
    """Everything the bit-identity contract covers, as plain data: every
    counter table and bank, the history register, and each
    ``_PREDICT_STATE`` field with its type (plus 2bcgskew's cached
    lookup indices)."""
    tables = counter_tables(predictor)
    assert len(tables) == len(predictor.table_entry_counts())
    state = {"tables": [list(table.values) for table in tables]}
    for name in (*type(predictor)._PREDICT_STATE, "_idx"):
        if hasattr(predictor, name):
            value = getattr(predictor, name)
            state[name] = (type(value), value)
    history = getattr(predictor, "history", None)
    if history is not None:
        state["history"] = history.value
    return state


def assert_bit_identical(factory, trace, warm_seed=None):
    """Run ``trace`` through both paths; compare counts and final state."""
    reference = factory()
    fast = factory()
    if warm_seed is not None:
        warm_up(reference, warm_seed)
        warm_up(fast, warm_seed)
    result_ref = simulate(trace, reference, kernel="reference")
    replay = try_fast_simulate(trace, fast, require=True)
    assert replay is not None, "fast kernel unexpectedly missing"
    assert replay.mispredictions == result_ref.mispredictions
    assert observable_state(fast) == observable_state(reference)


FAMILIES = [
    pytest.param(lambda: BimodalPredictor(256), id="bimodal-256x2"),
    pytest.param(lambda: BimodalPredictor(64, counter_bits=1),
                 id="bimodal-64x1"),
    pytest.param(lambda: BimodalPredictor(16, counter_bits=5),
                 id="bimodal-16x5"),
    pytest.param(lambda: BimodalPredictor(32, counter_bits=12),
                 id="bimodal-32x12"),
    pytest.param(lambda: GsharePredictor(256), id="gshare-256"),
    pytest.param(lambda: GsharePredictor(256, history_length=16),
                 id="gshare-256-folded"),
    pytest.param(lambda: GsharePredictor(16, history_length=1),
                 id="gshare-16-h1"),
    pytest.param(lambda: GhistPredictor(128), id="ghist-128"),
    pytest.param(lambda: GhistPredictor(64, history_length=12),
                 id="ghist-64-folded"),
    pytest.param(lambda: BiModePredictor(64, 32), id="bimode-64x32"),
    pytest.param(lambda: BiModePredictor(16, 64, history_length=8),
                 id="bimode-16-folded"),
    pytest.param(lambda: TwoBcGskewPredictor(64), id="2bcgskew-64"),
    pytest.param(lambda: TwoBcGskewPredictor(32, g0_history=0,
                                             g1_history=3, meta_history=5),
                 id="2bcgskew-32-h0"),
    # 16 KiB: bank indices are int16 while the table-offset ids are
    # uint16 (2E + C and 4E are exactly 2**16).
    pytest.param(lambda: make_predictor("bimode", 16 * 1024),
                 id="bimode-16KiB"),
    pytest.param(lambda: make_predictor("2bcgskew", 16 * 1024),
                 id="2bcgskew-16KiB"),
    # The coupled loop steps Python ints: no counter-width bound.
    pytest.param(lambda: BiModePredictor(32, 16, counter_bits=20),
                 id="bimode-32x20"),
]

LENGTHS = [0, 1, 2, 3, 17, 500, 4096]


class TestBitIdentity:
    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_cold_start(self, factory, length):
        seed = derive_seed(1234, "kernels", length)
        assert_bit_identical(factory, random_trace(seed, length))

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_warm_start(self, factory):
        seed = derive_seed(1234, "kernels", "warm")
        trace = random_trace(seed, 600)
        assert_bit_identical(factory, trace, warm_seed=seed + 1)

    def test_repeated_kernel_runs_chain_state(self):
        """Back-to-back fast runs match back-to-back reference runs."""
        seeds = [derive_seed(99, "chain", i) for i in range(3)]
        reference = GsharePredictor(128, history_length=9)
        fast = GsharePredictor(128, history_length=9)
        for seed in seeds:
            trace = random_trace(seed, 300)
            result = simulate(trace, reference, kernel="reference")
            assert try_fast_simulate(trace, fast, require=True) \
                .mispredictions == result.mispredictions
        assert observable_state(fast) == observable_state(reference)

    def test_simulate_fast_equals_reference_result(self, gcc_trace):
        for name in ("bimodal", "gshare", "ghist", "bimode", "2bcgskew"):
            fast = simulate(gcc_trace, make_predictor(name, 2048),
                            kernel="fast")
            reference = simulate(gcc_trace, make_predictor(name, 2048),
                                 kernel="reference")
            assert fast == reference


class TestCombinedBitIdentity:
    """simulate() on the fast path equals the reference loop for every
    kernel family, bare and combined, under every shift policy, with
    and without collision tagging, from cold and warm starts."""

    FAMILIES = [
        pytest.param(lambda: BimodalPredictor(64), id="bimodal"),
        pytest.param(lambda: GsharePredictor(64, history_length=5),
                     id="gshare"),
        pytest.param(lambda: GhistPredictor(32, history_length=5),
                     id="ghist"),
        pytest.param(lambda: BiModePredictor(64, 32), id="bimode"),
        pytest.param(lambda: TwoBcGskewPredictor(64), id="2bcgskew"),
    ]

    @staticmethod
    def state(predictor) -> dict:
        if isinstance(predictor, CombinedPredictor):
            return {
                "dynamic": observable_state(predictor.dynamic),
                "static_lookups": predictor.static_lookups,
                "static_mispredictions": predictor.static_mispredictions,
                "last_was_static": predictor.last_was_static,
            }
        return observable_state(predictor)

    def assert_paths_agree(self, build, trace, track_collisions,
                           monkeypatch, warm_seed=None):
        reference, fast = build(), build()
        if warm_seed is not None:
            warm_up(reference, warm_seed)
            warm_up(fast, warm_seed)
        expected = simulate(trace, reference, kernel="reference",
                            track_collisions=track_collisions)
        # Disabling the reference loop proves the fast path ran.
        monkeypatch.setattr("repro.core.simulator._reference_loop", None)
        actual = simulate(trace, fast, kernel="fast",
                          track_collisions=track_collisions)
        assert actual == expected
        assert self.state(fast) == self.state(reference)
        return actual

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("policy", [None, *ShiftPolicy],
                             ids=["plain", *(f"combined-{p.value}"
                                             for p in ShiftPolicy)])
    @pytest.mark.parametrize("track", [False, True],
                             ids=["untracked", "tracked"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_random_traces(self, factory, policy, track, warm, monkeypatch):
        seed = derive_seed(77, "combined", str(policy), track, warm)
        hints = random_hints(seed, 0.4)

        def build():
            if policy is None:
                return factory()
            return CombinedPredictor(factory(), hints, shift_policy=policy)

        self.assert_paths_agree(build, random_trace(seed, 900), track,
                                monkeypatch,
                                warm_seed=seed + 1 if warm else None)

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("policy", list(ShiftPolicy),
                             ids=[p.value for p in ShiftPolicy])
    @pytest.mark.parametrize("static_fraction,length", [
        pytest.param(0.4, 0, id="empty-trace"),
        pytest.param(1.0, 400, id="all-static"),
        pytest.param(0.0, 400, id="none-static"),
    ])
    def test_edge_cases(self, factory, policy, static_fraction, length,
                        monkeypatch):
        seed = derive_seed(78, "edges", policy.value, length)
        hints = random_hints(seed, static_fraction)
        build = lambda: CombinedPredictor(  # noqa: E731
            factory(), hints, shift_policy=policy)
        result = self.assert_paths_agree(build, random_trace(seed, length),
                                         True, monkeypatch, warm_seed=seed + 1)
        # static_branches also counts the warm-up, so check the table.
        if static_fraction == 1.0:
            assert result.collisions.lookups == 0
        elif static_fraction == 0.0:
            tables = len(factory().accessed())
            assert result.collisions.lookups == length * tables

    @pytest.mark.parametrize("factory", [
        pytest.param(lambda: GsharePredictor(32, history_length=9),
                     id="gshare"),
        pytest.param(lambda: GhistPredictor(16, history_length=7),
                     id="ghist"),
    ])
    @pytest.mark.parametrize("policy", list(ShiftPolicy),
                             ids=[p.value for p in ShiftPolicy])
    def test_folded_history(self, factory, policy, monkeypatch):
        seed = derive_seed(79, "folded", policy.value)
        hints = random_hints(seed, 0.3)
        build = lambda: CombinedPredictor(  # noqa: E731
            factory(), hints, shift_policy=policy)
        self.assert_paths_agree(build, random_trace(seed, 1500), True,
                                monkeypatch, warm_seed=seed + 1)

    @pytest.mark.parametrize("factory", [
        pytest.param(lambda: BiModePredictor(16, 64, history_length=8),
                     id="bimode-folded"),
        pytest.param(lambda: BiModePredictor(1 << 16, 256,
                                             history_length=31),
                     id="bimode-31-bit-history"),
        pytest.param(lambda: BiModePredictor(1 << 16, 1024,
                                             history_length=32),
                     id="bimode-32-bit-history"),
        pytest.param(lambda: TwoBcGskewPredictor(
            32, g0_history=0, g1_history=3, meta_history=5),
            id="2bcgskew-g0-0"),
        pytest.param(lambda: TwoBcGskewPredictor(
            64, g0_history=6, g1_history=0, meta_history=0),
            id="2bcgskew-g1-meta-0"),
        pytest.param(lambda: TwoBcGskewPredictor(
            8, g0_history=0, g1_history=0, meta_history=0),
            id="2bcgskew-all-0"),
        pytest.param(lambda: TwoBcGskewPredictor(
            16, g0_history=4, g1_history=4, meta_history=4),
            id="2bcgskew-full-width"),
    ])
    @pytest.mark.parametrize("policy", [None, *ShiftPolicy],
                             ids=["plain", *(f"combined-{p.value}"
                                             for p in ShiftPolicy)])
    def test_coupled_history_shapes(self, factory, policy, monkeypatch):
        """Bi-mode registers wider than the bank (folded, and past the
        30 bits the int32 windows hold); 2bcgskew bank histories of
        every length down to zero."""
        seed = derive_seed(80, "coupled", str(policy))
        hints = random_hints(seed, 0.3)

        def build():
            if policy is None:
                return factory()
            return CombinedPredictor(factory(), hints, shift_policy=policy)

        self.assert_paths_agree(build, random_trace(seed, 1500), True,
                                monkeypatch, warm_seed=seed + 1)


class TestAccuracyBitIdentity:
    """measure_accuracy's vectorized path against the reference loop."""

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_accuracy_profiles_match(self, factory, length):
        seed = derive_seed(4321, "accuracy", length)
        trace = random_trace(seed, length)
        fast_predictor, ref_predictor = factory(), factory()
        fast = measure_accuracy(trace, fast_predictor)
        reference = _measure_accuracy_scalar(trace, ref_predictor)
        # Identical per-branch counts AND first-occurrence insertion
        # order (to_json serializes the mapping order), plus the same
        # trained predictor state.
        assert fast.to_json() == reference.to_json()
        assert list(fast.branches) == list(reference.branches)
        assert observable_state(fast_predictor) \
            == observable_state(ref_predictor)

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_predictions_agree_with_simulate_counts(self, factory):
        seed = derive_seed(4321, "accuracy", "counts")
        trace = random_trace(seed, 700)
        predictor = factory()
        replay = try_fast_simulate(trace, predictor, require=True)
        assert replay is not None
        _, outcomes = trace.arrays()
        mispredicted = int(numpy.count_nonzero(replay.predictions != outcomes))
        result = simulate(trace, factory(), kernel="reference")
        assert mispredicted == result.mispredictions

    def test_kernel_less_predictor_falls_back_to_the_loop(self):
        predictor = make_predictor("yags", 4096)
        assert try_fast_simulate(random_trace(7, 50), predictor) is None
        trace = random_trace(8, 400)
        fast = measure_accuracy(trace, make_predictor("yags", 4096))
        reference = _measure_accuracy_scalar(
            trace, make_predictor("yags", 4096)
        )
        assert fast.to_json() == reference.to_json()


class TestDispatch:
    def test_kernel_modes_validate(self):
        for mode in KERNEL_MODES:
            assert validate_kernel_mode(mode) == mode
        with pytest.raises(ConfigurationError):
            validate_kernel_mode("vectorized")

    def test_unknown_mode_rejected_by_simulate(self):
        with pytest.raises(ConfigurationError):
            simulate(random_trace(5, 10), BimodalPredictor(64),
                     kernel="turbo")

    def test_unsupported_predictor_falls_back(self):
        trace = random_trace(7, 400)
        predictor = make_predictor("agree", 2048)
        assert try_fast_simulate(trace, predictor) is None
        # kernel="fast" still runs (the knob requires numpy, not a
        # kernel for every family) and matches the reference loop.
        fast = simulate(trace, make_predictor("agree", 2048),
                        kernel="fast")
        reference = simulate(trace, make_predictor("agree", 2048),
                             kernel="reference")
        assert fast == reference

    def test_limits_fall_back_to_reference(self):
        trace = random_trace(11, 50)
        wide = BimodalPredictor(16, counter_bits=17)  # beyond MAX_COUNTER_BITS
        assert try_fast_simulate(trace, wide) is None
        result = simulate(trace, wide, kernel="auto")
        assert result.branches == 50

    def test_collision_tracking_takes_fast_path(self, monkeypatch):
        """track_collisions derives its counts from the replay, so auto
        takes the kernel — and reports the untracked mispredictions."""
        trace = random_trace(13, 1200)
        plain = simulate(trace, GsharePredictor(128), kernel="auto")

        def no_reference_loop(*args):
            raise AssertionError("collision tracking left the fast path")

        monkeypatch.setattr("repro.core.simulator._reference_loop",
                            no_reference_loop)
        tracked = simulate(trace, GsharePredictor(128), kernel="auto",
                           track_collisions=True)
        assert tracked.mispredictions == plain.mispredictions
        assert tracked.collisions is not None
        assert plain.collisions is None

    def test_combined_over_coupled_family_logs_its_fallback(self, caplog):
        combined = CombinedPredictor(make_predictor("yags", 2048),
                                     random_hints(3, 0.3))
        with caplog.at_level(logging.DEBUG, logger="repro.kernels"):
            assert try_fast_simulate(random_trace(7, 100), combined) is None
        assert [r.getMessage() for r in caplog.records] \
            == ["reference loop: no-kernel:yags"]

    def test_over_limits_logs_its_fallback(self, caplog):
        wide = BimodalPredictor(16, counter_bits=17)
        with caplog.at_level(logging.DEBUG, logger="repro.kernels"):
            result = simulate(random_trace(11, 50), wide, kernel="auto")
        assert [r.getMessage() for r in caplog.records] \
            == ["reference loop: over-limits"]
        # The reason is observability only, never part of the result.
        assert result.metadata == {}


class TestWithoutNumpy:
    def test_auto_falls_back(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.numpy_available", lambda: False)
        trace = random_trace(17, 300)
        result = simulate(trace, BimodalPredictor(64), kernel="auto")
        reference = simulate(trace, BimodalPredictor(64),
                             kernel="reference")
        assert result == reference

    def test_fast_raises(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.numpy_available", lambda: False)
        with pytest.raises(ConfigurationError, match="numpy"):
            simulate(random_trace(19, 10), BimodalPredictor(64),
                     kernel="fast")

    def test_numpy_available_probe(self):
        assert numpy_available() is True


class TestExperimentContext:
    def test_cells_identical_under_fast_and_reference(self):
        """The figure-1 style flow is kernel-invariant end to end."""
        results = {}
        for kernel in ("fast", "reference"):
            ctx = ExperimentContext(trace_length=4000, site_scale=0.02,
                                    seed=3, kernel=kernel)
            results[kernel] = [
                ctx.run("gcc", "gshare", 1024),
                ctx.run("gcc", "bimodal", 1024, scheme="static_95"),
            ]
        assert results["fast"] == results["reference"]

    def test_figure_cells_identical_under_fast_and_reference(
            self, monkeypatch):
        """Every cell of figures 1, 2, 7 and 8 -- gshare with collision
        tagging, and combined predictors over every family -- reaches a
        kernel (every scalar loop raises on the fast side) and gives
        the same result as on the reference loop."""
        from repro.experiments.registry import get_cells

        def scalar_loop(*args):
            raise AssertionError("a figure cell left the fast path")

        results = {}
        for kernel in ("reference", "fast"):
            if kernel == "fast":
                for name in (
                    "repro.core.simulator._reference_loop",
                    "repro.profiling.accuracy._measure_accuracy_scalar",
                    "repro.profiling.collision_profile."
                    "_measure_collision_involvement_scalar",
                ):
                    monkeypatch.setattr(name, scalar_loop)
            ctx = ExperimentContext(trace_length=1500, site_scale=0.02,
                                    seed=5, kernel=kernel)
            cells = {cell: None for figure in
                     ("figure1", "figure2", "figure7", "figure8")
                     for cell in get_cells(figure)(ctx)}
            results[kernel] = [execute_cell(ctx, cell) for cell in cells]
        assert len(results["fast"]) == 58
        assert results["fast"] == results["reference"]

    def test_kernel_knob_pickles(self):
        import pickle

        ctx = ExperimentContext(trace_length=1000, site_scale=0.02,
                                seed=3, kernel="reference")
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.kernel == "reference"
        assert (clone.trace_length, clone.site_scale, clone.seed) \
            == (ctx.trace_length, ctx.site_scale, ctx.seed)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentContext(trace_length=1000, kernel="warp")


class TestCollisionVectorization:
    """The vectorized collision-involvement path is bit-identical to the
    scalar reference loop — same per-branch charges AND the same dict
    insertion order (selection schemes iterate profiles in order)."""

    FAMILIES = [
        lambda: BimodalPredictor(64),
        lambda: GsharePredictor(64, history_length=5),
        lambda: GhistPredictor(64, history_length=6),
        lambda: BiModePredictor(64, 32),
        lambda: TwoBcGskewPredictor(64),
    ]

    @staticmethod
    def as_plain(profile):
        return [
            (addr, rec.executions, rec.destructive, rec.constructive)
            for addr, rec in profile.branches.items()
        ]

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("length", [0, 1, 2, 500, 3000])
    def test_fast_matches_scalar(self, factory, length):
        trace = random_trace(derive_seed(99, "collisions", length), length)
        fast = measure_collision_involvement(trace, factory())
        scalar = _measure_collision_involvement_scalar(trace, factory())
        assert self.as_plain(fast) == self.as_plain(scalar)
        assert (fast.program_name, fast.input_name, fast.predictor_name) \
            == (scalar.program_name, scalar.input_name, scalar.predictor_name)

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_fast_path_is_taken(self, factory):
        trace = random_trace(derive_seed(99, "collisions", "taken"), 400)
        records = _fast_collision_records(trace, factory())
        assert records is not None
        scalar = _measure_collision_involvement_scalar(trace, factory())
        assert list(records) == list(scalar.branches)

    def test_kernel_less_predictor_falls_back(self):
        trace = random_trace(derive_seed(99, "collisions", "fallback"), 300)
        predictor = make_predictor("yags", 2048)
        assert _fast_collision_records(trace, predictor) is None
        profile = measure_collision_involvement(trace, predictor)
        scalar = _measure_collision_involvement_scalar(
            trace, make_predictor("yags", 2048))
        assert self.as_plain(profile) == self.as_plain(scalar)

    def test_out_of_limits_predictor_falls_back(self):
        # Counter widths past the kernels' int32 headroom guard must
        # fall back to the scalar loop, not crash or diverge.
        trace = random_trace(derive_seed(99, "collisions", "large"), 100)
        wide = lambda: BimodalPredictor(64, counter_bits=17)  # noqa: E731
        assert _fast_collision_records(trace, wide()) is None
        profile = measure_collision_involvement(trace, wide())
        scalar = _measure_collision_involvement_scalar(trace, wide())
        assert self.as_plain(profile) == self.as_plain(scalar)

    def test_gcc_trace_end_to_end(self, gcc_trace):
        fast = measure_collision_involvement(gcc_trace,
                                             GsharePredictor(256))
        scalar = _measure_collision_involvement_scalar(gcc_trace,
                                                       GsharePredictor(256))
        assert self.as_plain(fast) == self.as_plain(scalar)
        assert fast.total_destructive == scalar.total_destructive

    @pytest.mark.parametrize("name", ["bimode", "2bcgskew"])
    def test_gcc_trace_coupled_families(self, name, gcc_trace):
        """Multi-bank lookups: each bank keeps its own tags, and one
        branch may collide in several banks at once."""
        records = _fast_collision_records(gcc_trace,
                                          make_predictor(name, 1024))
        assert records is not None
        scalar = _measure_collision_involvement_scalar(
            gcc_trace, make_predictor(name, 1024))
        assert [(a, r.executions, r.destructive, r.constructive)
                for a, r in records.items()] == self.as_plain(scalar)
