"""Table 5: branch behaviour, training versus reference input.

Paper: "The table shows that when input is changed from 'train' to 'ref'
two things can be noted (1) a different number of branches are executed
and (2) even though many branches are common to the executions with the
two inputs, the behavior of those branches changes widely at times."

Columns here mirror the paper's: coverage (branches seen under both
inputs), majority-direction change, and the small (<5%) / large (>50%)
bias-change buckets, each as static and dynamic (execution-weighted)
percentages.
"""

from __future__ import annotations

from repro.experiments.common import PROGRAMS, ExperimentContext
from repro.experiments.report import ExperimentReport
from repro.profiling.drift import DriftReport
from repro.runner import DRIFT, Cell, execute_cells
from repro.utils.tables import format_percent

__all__ = ["run", "cells", "synthesize"]


def _drift_cell(program: str) -> Cell:
    return Cell.profiling(DRIFT, program, profile_input="train")


def cells(ctx: ExperimentContext) -> list[Cell]:
    """Declared cell list: one train-to-ref drift cell per program.

    Drift cells profile traces ``DRIFT_LENGTH_FACTOR`` times the
    measurement length (see :mod:`repro.profiling.drift`).
    """
    return [_drift_cell(program) for program in PROGRAMS]


def run(ctx: ExperimentContext) -> ExperimentReport:
    """Regenerate Table 5 from train/ref profiles."""
    return synthesize(ctx, execute_cells(ctx, cells(ctx)))


def synthesize(
    ctx: ExperimentContext, results: dict[Cell, DriftReport]
) -> ExperimentReport:
    """Build Table 5 from the drift cells."""
    report = ExperimentReport(
        experiment_id="table5",
        title="Branch behaviour: training vs reference input (paper Table 5)",
    )
    table = report.add_table(
        "Train-to-ref drift (static% / dynamic%)",
        ["program", "coverage", "majority change", "bias change <5%",
         "bias change >50%"],
    )
    for program in PROGRAMS:
        drift = results[_drift_cell(program)]
        table.rows.append(
            [
                program,
                f"{format_percent(drift.coverage_static)} / "
                f"{format_percent(drift.coverage_dynamic)}",
                f"{format_percent(drift.majority_change_static)} / "
                f"{format_percent(drift.majority_change_dynamic)}",
                f"{format_percent(drift.small_change_static)} / "
                f"{format_percent(drift.small_change_dynamic)}",
                f"{format_percent(drift.large_change_static)} / "
                f"{format_percent(drift.large_change_dynamic)}",
            ]
        )
        report.data[program] = drift
    report.notes.append(
        "Shape checks: coverage is high for every program except perl "
        "(its train input reaches much less of the interpreter); every "
        "program has a non-trivial tail of majority-direction reversals; "
        "most branches change bias by <5% (what makes the Section 5.1 "
        "merge-and-filter strategy viable)."
    )
    return report
