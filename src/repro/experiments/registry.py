"""Registry mapping experiment ids to runners.

Ids follow the paper: ``table1`` .. ``table5``, ``figure1`` ..
``figure13`` (figures 1-6 are the per-program gshare sweeps, 7-12 the
per-program scheme comparisons), plus the grouped ids ``figures1-6`` and
``figures7-12`` and the ``ablations`` extras.

Every experiment additionally registers a *cell provider* (its declared
:class:`~repro.runner.cells.Cell` list) and a *synthesizer* (report
construction from executed results); the parallel runner (``repro run``)
uses those to merge, deduplicate, and schedule cells across every
requested experiment at once.  Profiling experiments (``table1``,
``table5``, ``classification``, ``pipeline-impact``) declare cells of
the profiling kinds, and ``summary`` declares the union of its members'
cells, so every id is cached and pooled the same way.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExperimentError
from repro.experiments import (
    ablations,
    extras,
    figure13,
    figures_gshare,
    figures_schemes,
    summary,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.common import PROGRAMS, ExperimentContext, default_context
from repro.experiments.report import ExperimentReport

__all__ = [
    "EXPERIMENT_IDS",
    "GROUPED_EXPERIMENT_IDS",
    "get_cells",
    "get_experiment",
    "run_experiment",
    "synthesize",
]

Runner = Callable[[ExperimentContext], ExperimentReport]
CellProvider = Callable[[ExperimentContext], list]
Synthesizer = Callable[[ExperimentContext, dict], ExperimentReport]


def _program_figure(module, program: str) -> Runner:
    return lambda ctx: module.run_program(ctx, program)


def _program_cells(module, program: str) -> CellProvider:
    return lambda ctx: module.cells_program(ctx, program)


def _program_synthesize(module, program: str) -> Synthesizer:
    return lambda ctx, results: module.synthesize_program(ctx, program, results)


_RUNNERS: dict[str, Runner] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "figures1-6": figures_gshare.run,
    "figures7-12": figures_schemes.run,
    "figure13": figure13.run,
    "ablations": ablations.run,
    "ablation-agree": ablations.run_agree,
    "ablation-cutoff": ablations.run_cutoff_sweep,
    "ablation-history": ablations.run_history_sweep,
    "ablation-selection": ablations.run_selection_shootout,
    "pipeline-impact": extras.run_pipeline_impact,
    "classification": extras.run_classification,
    "summary": summary.run_all,
}

#: Cell provider + synthesizer per experiment id (every id has one).
_CELL_RUNNERS: dict[str, tuple[CellProvider, Synthesizer]] = {
    "table1": (table1.cells, table1.synthesize),
    "table2": (table2.cells, table2.synthesize),
    "table3": (table3.cells, table3.synthesize),
    "table4": (table4.cells, table4.synthesize),
    "table5": (table5.cells, table5.synthesize),
    "figures1-6": (figures_gshare.cells, figures_gshare.synthesize),
    "figures7-12": (figures_schemes.cells, figures_schemes.synthesize),
    "figure13": (figure13.cells, figure13.synthesize),
    "ablations": (ablations.cells, ablations.synthesize),
    "ablation-agree": (ablations.cells_agree, ablations.synthesize_agree),
    "ablation-cutoff": (ablations.cells_cutoff, ablations.synthesize_cutoff),
    "ablation-history": (ablations.cells_history, ablations.synthesize_history),
    "ablation-selection": (ablations.cells_shootout, ablations.synthesize_shootout),
    "pipeline-impact": (extras.cells_pipeline_impact,
                        extras.synthesize_pipeline_impact),
    "classification": (extras.cells_classification,
                       extras.synthesize_classification),
    "summary": (summary.cells, summary.synthesize),
}

for _i, _program in enumerate(PROGRAMS):
    _RUNNERS[f"figure{_i + 1}"] = _program_figure(figures_gshare, _program)
    _RUNNERS[f"figure{_i + 7}"] = _program_figure(figures_schemes, _program)
    _CELL_RUNNERS[f"figure{_i + 1}"] = (
        _program_cells(figures_gshare, _program),
        _program_synthesize(figures_gshare, _program),
    )
    _CELL_RUNNERS[f"figure{_i + 7}"] = (
        _program_cells(figures_schemes, _program),
        _program_synthesize(figures_schemes, _program),
    )

EXPERIMENT_IDS = tuple(sorted(_RUNNERS))

GROUPED_EXPERIMENT_IDS = frozenset({
    "figures1-6", "figures7-12", "ablations", "summary",
})
"""Ids that aggregate other experiments and persist no golden of their
own: the per-program/per-ablation members under them each have a
``benchmarks/results/<id>.txt`` golden, so a grouped golden would only
duplicate bytes already regression-checked.  The ``repro lint`` REG001
rule reads this set; adding a grouped id here is a declared contract,
not a silent exemption."""


def get_experiment(experiment_id: str) -> Runner:
    """The runner for an experiment id; raises on unknown ids."""
    try:
        return _RUNNERS[experiment_id]
    except KeyError:
        known = ", ".join(EXPERIMENT_IDS)
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        ) from None


def get_cells(experiment_id: str) -> CellProvider:
    """The cell provider for an id; raises on unknown ids (same contract
    as :func:`get_experiment`)."""
    get_experiment(experiment_id)  # id validation
    return _CELL_RUNNERS[experiment_id][0]


def synthesize(
    experiment_id: str, ctx: ExperimentContext, results: dict
) -> ExperimentReport:
    """Build an experiment's report from already-executed cell results."""
    get_experiment(experiment_id)  # id validation
    return _CELL_RUNNERS[experiment_id][1](ctx, results)


def run_experiment(
    experiment_id: str, ctx: ExperimentContext | None = None
) -> ExperimentReport:
    """Run one experiment, using the shared default context by default."""
    runner = get_experiment(experiment_id)
    return runner(ctx if ctx is not None else default_context())
