"""Experiment cells: the unit of work the parallel runner schedules.

A :class:`Cell` is one point of a paper table or figure.  Its ``kind``
says what work it stands for (see :data:`CELL_KINDS`):

* ``simulate`` (the default) -- one ``run_configuration``-shaped
  simulation: (program, predictor, size, scheme, ...) through selection
  and measurement, returning a
  :class:`~repro.core.metrics.SimulationResult`;
* ``characterize`` -- one trace's Table 1/Table 2 figures
  (:class:`~repro.workloads.stats.TraceSummary`);
* ``drift`` -- one program's train-versus-ref behaviour change
  (:class:`~repro.profiling.drift.DriftReport`, Table 5);
* ``classify`` -- one program's bias-class breakdown with one
  predictor's per-class accuracy
  (:class:`~repro.analysis.classification.ClassBreakdown`);
* ``frontend`` -- one predictor's front-end IPC alone and under the
  cell's hints (:class:`~repro.pipeline.frontend.HintedPipelineRuns`).

Experiment modules *declare* their cell lists (pure data, no
simulation) and synthesize reports from the returned results; the
runner decides how cells execute (inline, process pool, or straight out
of the persistent cache).  Every kind goes through that one path.

Cells are frozen, hashable, and picklable: the same object is the
results-dict key in the parent, the work item shipped to a worker, and
the input to the cache key hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.classification import ClassBreakdown, classify_branches
from repro.arch.isa import ShiftPolicy
from repro.core.metrics import SimulationResult
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentContext
from repro.pipeline.frontend import HintedPipelineRuns
from repro.predictors.sizing import make_predictor
from repro.profiling.database import ProfileDatabase
from repro.profiling.drift import (
    DRIFT_LENGTH_FACTOR, DriftReport, analyze_trace_drift,
)
from repro.staticpred.hints import HintAssignment
from repro.staticpred.selection import select_static_95
from repro.workloads.stats import TraceSummary, characterize

__all__ = [
    "CELL_KINDS",
    "CLASSIFY",
    "CHARACTERIZE",
    "Cell",
    "CellKind",
    "DRIFT",
    "FRONTEND",
    "SIMULATE",
    "STABLE_SCHEME",
    "execute_cell",
    "resolve_hints",
    "result_from_dict",
]

SIMULATE = "simulate"
CHARACTERIZE = "characterize"
DRIFT = "drift"
CLASSIFY = "classify"
FRONTEND = "frontend"

#: Context knobs that can influence *how* a cell executes but are
#: deliberately excluded from :meth:`Cell.key_fields`, with the
#: justification for each.  This is a machine-checked contract: lint
#: rule KEY001 proves every Cell field and every ``ExperimentContext``
#: knob reachable from :func:`execute_cell` either flows into the cache
#: key or is declared here -- and flags a stale entry whose knob *does*
#: reach the key.  Add to this dict only with a reason a reviewer can
#: audit; an exemption is a claim that two runs differing *only* in
#: that knob are bit-identical.
_KEY_EXEMPT = {
    "kernel": "kernels are bit-identical to the reference loop by "
              "contract (repro.kernels), so the knob changes wall time, "
              "never results",
    "trace_dir": "names *where* pinned artifacts live, not what they "
                 "contain; replay keys fold in the artifacts' content "
                 "digests instead",
}

STABLE_SCHEME = "static_95_stable"
"""Figure 13's bar 4: static_95 over the merged train+ref profile with
unstable (>5% bias change) branches filtered out.  A cell-level scheme
name because the selection input is a *derived* profile, not one of the
raw profiling runs the standard schemes consume."""

#: Schemes whose hint set depends on the simulated dynamic predictor
#: (they run it over the profiling trace), so their cache keys must
#: include the predictor configuration.
_PREDICTOR_DEPENDENT_SCHEMES = frozenset(
    {"static_acc", "static_fac", "static_collision", "static_iter"}
)


@dataclass(frozen=True, slots=True)
class Cell:
    """One experiment cell: a full selection + measurement configuration.

    ``predictor_kwargs`` is a sorted tuple of ``(name, value)`` pairs
    rather than a dict so cells stay hashable; use :meth:`make` to build
    one from keyword arguments.
    """

    program: str
    predictor: str
    size_bytes: int
    scheme: str = "none"
    shift_policy: ShiftPolicy = ShiftPolicy.NO_SHIFT
    measure_input: str = "ref"
    profile_input: str = "ref"
    cutoff: float = 0.95
    factor: float = 1.05
    track_collisions: bool = False
    predictor_kwargs: tuple[tuple[str, object], ...] = field(default=())
    kind: str = SIMULATE

    def __post_init__(self):
        if self.kind not in CELL_KINDS:
            raise ExperimentError(
                f"unknown cell kind {self.kind!r}; known kinds: "
                f"{', '.join(CELL_KINDS)}"
            )

    @classmethod
    def make(cls, program: str, predictor: str, size_bytes: int,
             predictor_kwargs: dict | None = None, **kwargs) -> "Cell":
        """Build a cell, normalizing ``predictor_kwargs`` to sorted pairs."""
        pairs = tuple(sorted((predictor_kwargs or {}).items()))
        return cls(program, predictor, size_bytes,
                   predictor_kwargs=pairs, **kwargs)

    @classmethod
    def profiling(cls, kind: str, program: str, **kwargs) -> "Cell":
        """A cell of a kind that runs no predictor of its own."""
        return cls(program, "", 0, kind=kind, **kwargs)

    @property
    def selection_is_predictor_dependent(self) -> bool:
        """Whether the hint set depends on the dynamic configuration."""
        return self.scheme in _PREDICTOR_DEPENDENT_SCHEMES

    def key_fields(self, ctx: ExperimentContext) -> dict:
        """The complete, ordered cache-key identity of this cell.

        Everything a :class:`~repro.core.metrics.SimulationResult` is a
        function of: the context's root seed, trace length, and site
        scale, plus every cell field.  Any change to any entry must (and
        does) produce a different cache key.  The context's ``kernel``
        knob is deliberately absent: kernels are bit-identical to the
        reference loop by contract (:mod:`repro.kernels`), so it can
        never change a result -- a cache entry written under one kernel
        mode is valid under every other.

        In replay mode (the context pins a trace suite) the content
        digests of every trace the cell consumes -- the measurement
        trace, plus the profiling trace(s) for selecting schemes -- are
        folded in as extra entries, so a pinned-artifact result and a
        regenerated one can never alias in the cache even if the scalar
        knobs coincide.  In regeneration mode the entries are absent and
        existing cache keys are unchanged.

        ``kind`` enters the key only when it is not ``simulate``, so
        simulation keys stay what they were before cells had kinds.
        """
        fields = {
            "seed": ctx.seed,
            "trace_length": ctx.trace_length,
            "site_scale": ctx.site_scale,
            "program": self.program,
            "measure_input": self.measure_input,
            "predictor": self.predictor,
            "size_bytes": self.size_bytes,
            "scheme": self.scheme,
            "shift_policy": self.shift_policy.value,
            "profile_input": self.profile_input,
            "cutoff": self.cutoff,
            "factor": self.factor,
            "track_collisions": self.track_collisions,
            "predictor_kwargs": list(self.predictor_kwargs),
        }
        if self.kind != SIMULATE:
            fields["kind"] = self.kind
        if ctx.trace_suite is not None:
            fields["trace_digest"] = self._measure_digests(ctx)
            if self.scheme != "none":
                fields["profile_trace_digest"] = self._profile_digests(ctx)
        return fields

    def _measure_digests(self, ctx: ExperimentContext):
        """Digest(s) of the trace(s) the cell measures.

        A drift cell compares its profiling input against its
        measurement input, both at the longer drift length; every other
        kind reads the one ``measure_input`` trace.
        """
        if self.kind == DRIFT:
            length = _drift_length(ctx)
            return [
                ctx.trace_digest(self.program, self.profile_input, length),
                ctx.trace_digest(self.program, self.measure_input, length),
            ]
        return ctx.trace_digest(self.program, self.measure_input)

    def _profile_digests(self, ctx: ExperimentContext):
        """Digest(s) of the trace(s) the selection phase profiles.

        The stable-filtered scheme merges the train and ref profiles, so
        its selection identity spans both pinned traces; every other
        scheme profiles exactly ``profile_input``.
        """
        if self.scheme == STABLE_SCHEME:
            return [
                ctx.trace_digest(self.program, "train"),
                ctx.trace_digest(self.program, "ref"),
            ]
        return ctx.trace_digest(self.program, self.profile_input)

    def hint_key_fields(self, ctx: ExperimentContext) -> dict:
        """Cache-key identity of this cell's *selection phase* only.

        Bias-only schemes (``static_95``, the stable-filtered variant)
        share one hint set across every predictor and size, so their key
        deliberately omits the dynamic configuration -- that is what lets
        a gshare cell reuse the selection a 2bcgskew cell already paid
        for.
        """
        fields = {
            "seed": ctx.seed,
            "trace_length": ctx.trace_length,
            "site_scale": ctx.site_scale,
            "program": self.program,
            "scheme": self.scheme,
            "profile_input": self.profile_input,
            "cutoff": self.cutoff,
            "factor": self.factor,
        }
        if self.selection_is_predictor_dependent:
            fields["predictor"] = self.predictor
            fields["size_bytes"] = self.size_bytes
            fields["predictor_kwargs"] = list(self.predictor_kwargs)
        if ctx.trace_suite is not None:
            fields["profile_trace_digest"] = self._profile_digests(ctx)
        return fields


def _stable_hints(ctx: ExperimentContext, cell: Cell) -> HintAssignment:
    """Figure 13 bar 4: merge train+ref profiles, drop unstable branches."""
    database = ProfileDatabase()
    database.record(ctx.profile(cell.program, "train"))
    database.record(ctx.profile(cell.program, "ref"))
    return select_static_95(
        database.stable_filtered(cell.program), cutoff=cell.cutoff
    )


def resolve_hints(ctx: ExperimentContext, cell: Cell, cache=None) -> HintAssignment | None:
    """Run (or fetch) the selection phase for a cell.

    With a :class:`~repro.runner.cache.ResultCache`, the hint database is
    shared across worker processes: the first worker to need a selection
    persists it and every later worker (or run) deserializes instead of
    re-simulating the profiling pass.
    """
    if cell.scheme == "none":
        return None
    if cache is not None:
        cached = cache.get_hints(ctx, cell)
        if cached is not None:
            return cached
    if cell.scheme == STABLE_SCHEME:
        hints = _stable_hints(ctx, cell)
    else:
        hints = ctx.hints(
            cell.program, cell.scheme,
            predictor_name=cell.predictor, size_bytes=cell.size_bytes,
            profile_input=cell.profile_input, cutoff=cell.cutoff,
            factor=cell.factor,
            predictor_kwargs=dict(cell.predictor_kwargs) or None,
        )
    if cache is not None:
        cache.put_hints(ctx, cell, hints)
    return hints


def _simulate(ctx: ExperimentContext, cell: Cell, cache) -> SimulationResult:
    """Selection + measurement for one configuration.

    The result's ``metadata`` records ``static_hint_count`` (how many
    branch sites the selection phase marked static) so report synthesis
    never has to re-run selection in the parent process.
    """
    kwargs = dict(cell.predictor_kwargs) or None
    hints = resolve_hints(ctx, cell, cache=cache)
    result = ctx.run(
        cell.program,
        cell.predictor,
        cell.size_bytes,
        scheme=cell.scheme,
        shift_policy=cell.shift_policy,
        measure_input=cell.measure_input,
        profile_input=cell.profile_input,
        track_collisions=cell.track_collisions,
        cutoff=cell.cutoff,
        factor=cell.factor,
        predictor_kwargs=kwargs,
        hints=hints,
    )
    if hints is not None:
        result.metadata["static_hint_count"] = hints.static_count()
    return result


def _characterize(ctx: ExperimentContext, cell: Cell, cache) -> TraceSummary:
    """Branch density and bias figures of one trace (Tables 1 and 2)."""
    return characterize(ctx.trace(cell.program, cell.measure_input)).summary()


def _drift_length(ctx: ExperimentContext) -> int:
    # Not a Cell method: KEY001 counts knobs read on the key path as
    # keyed, and ``trace_length`` is keyed by its own entry.
    return ctx.trace_length * DRIFT_LENGTH_FACTOR


def _drift(ctx: ExperimentContext, cell: Cell, cache) -> DriftReport:
    """Behaviour change from ``profile_input`` to ``measure_input``
    (Table 5), on traces ``DRIFT_LENGTH_FACTOR`` times longer."""
    length = _drift_length(ctx)
    return analyze_trace_drift(
        ctx.trace(cell.program, cell.profile_input, length),
        ctx.trace(cell.program, cell.measure_input, length),
    )


def _classify(ctx: ExperimentContext, cell: Cell, cache) -> ClassBreakdown:
    """Chang-style bias classes of the measured trace, with the cell
    predictor's per-class accuracy."""
    accuracy = ctx.accuracy(
        cell.program, cell.predictor, cell.size_bytes,
        input_name=cell.measure_input,
        predictor_kwargs=dict(cell.predictor_kwargs) or None,
    )
    return classify_branches(
        ctx.profile(cell.program, cell.measure_input), accuracy
    )


def _frontend(ctx: ExperimentContext, cell: Cell, cache) -> HintedPipelineRuns:
    """Front-end cycles of the cell's predictor alone and under the
    cell's hints."""
    hints = resolve_hints(ctx, cell, cache=cache)
    if hints is None:
        raise ExperimentError("a frontend cell needs a selection scheme")
    kwargs = dict(cell.predictor_kwargs)
    return HintedPipelineRuns.measure(
        ctx.trace(cell.program, cell.measure_input),
        lambda: make_predictor(cell.predictor, cell.size_bytes, **kwargs),
        hints,
    )


@dataclass(frozen=True, slots=True)
class CellKind:
    """How the cells of one kind execute, and what they return."""

    execute: Callable[[ExperimentContext, Cell, object], object]
    """Pure function of (context knobs, cell); the cache is shared state
    for the selection phase only."""
    result_type: type
    """The result class; its ``to_dict``/``from_dict`` are the stored
    and the wire form."""


#: Every cell kind.  ``execute_cell`` dispatches through this table and
#: the result store decodes through it, so a new kind is one entry here.
CELL_KINDS: dict[str, CellKind] = {
    SIMULATE: CellKind(_simulate, SimulationResult),
    CHARACTERIZE: CellKind(_characterize, TraceSummary),
    DRIFT: CellKind(_drift, DriftReport),
    CLASSIFY: CellKind(_classify, ClassBreakdown),
    FRONTEND: CellKind(_frontend, HintedPipelineRuns),
}


def execute_cell(ctx: ExperimentContext, cell: Cell, cache=None):
    """Execute one cell against a context; pure function of (ctx, cell)."""
    if not isinstance(cell, Cell):
        raise ExperimentError(f"expected a Cell, got {cell!r}")
    return CELL_KINDS[cell.kind].execute(ctx, cell, cache)


def result_from_dict(cell: Cell, payload: dict):
    """Decode a stored or shipped result of ``cell``'s kind."""
    return CELL_KINDS[cell.kind].result_type.from_dict(payload)
