"""Extra reportable experiments beyond the paper's tables and figures.

* :func:`run_pipeline_impact` (``frontend`` cells) -- the paper's
  introduction in numbers: convert each program's MISP/KI improvement
  under static hints into an IPC delta with the trace-driven front-end
  model, at a shallow and a deep pipeline ("as processor pipelines get
  increasingly deeper this performance degradation is becoming
  increasingly significant").
* :func:`run_classification` (``classify`` cells) -- the Chang-style
  class breakdown per program with per-class bimodal and gshare
  accuracy, the view that explains *why* Static_95 complements some
  predictors and duplicates others.
"""

from __future__ import annotations

from repro.analysis.classification import BiasClass
# Re-exported: span tracers (perfbench/tracing.py) patch this name.  The
# classify cells themselves run in repro.runner.cells.
from repro.analysis.classification import classify_branches  # noqa: F401
from repro.experiments.common import KIB, PROGRAMS, ExperimentContext
from repro.experiments.report import ExperimentReport
from repro.runner import CLASSIFY, FRONTEND, Cell, execute_cells

__all__ = [
    "run_pipeline_impact", "cells_pipeline_impact",
    "synthesize_pipeline_impact", "run_classification",
    "cells_classification", "synthesize_classification",
]

PIPELINE_PREDICTOR = "gshare"
PIPELINE_SIZE = 4 * KIB
CLASSIFICATION_PREDICTORS = ("bimodal", "gshare")
CLASSIFICATION_SIZE = 8 * KIB


def _frontend_cell(program: str) -> Cell:
    return Cell.make(program, PIPELINE_PREDICTOR, PIPELINE_SIZE,
                     scheme="static_acc", kind=FRONTEND)


def cells_pipeline_impact(ctx: ExperimentContext) -> list[Cell]:
    """One frontend cell per program; its hints come through the hint
    cache the figure cells share."""
    return [_frontend_cell(program) for program in PROGRAMS]


def run_pipeline_impact(ctx: ExperimentContext) -> ExperimentReport:
    """IPC effect of static hints at two pipeline depths."""
    return synthesize_pipeline_impact(
        ctx, execute_cells(ctx, cells_pipeline_impact(ctx))
    )


def synthesize_pipeline_impact(
    ctx: ExperimentContext, results: dict
) -> ExperimentReport:
    """Build the pipeline-impact report from the frontend cells."""
    report = ExperimentReport(
        experiment_id="pipeline-impact",
        title="Front-end IPC impact of static hints "
              f"({PIPELINE_PREDICTOR} {PIPELINE_SIZE // KIB}KB + static_acc)",
    )
    table = report.add_table(
        "IPC: dynamic alone vs with static_acc hints",
        ["program", "penalty (cycles)", "IPC dynamic", "IPC +static",
         "speedup", "redirect overhead dyn -> static"],
    )
    for program in PROGRAMS:
        report.data[program] = {}
        runs = results[_frontend_cell(program)].runs
        for penalty, (base, combined) in runs.items():
            speedup = base.cycles / combined.cycles if combined.cycles else 1.0
            table.rows.append(
                [
                    program,
                    penalty,
                    round(base.ipc, 3),
                    round(combined.ipc, 3),
                    f"{speedup:.3f}x",
                    f"{base.redirect_overhead:.1%} -> "
                    f"{combined.redirect_overhead:.1%}",
                ]
            )
            report.data[program][penalty] = speedup
    report.notes.append(
        "Shape check: the same hint set buys a larger speedup at the "
        "deeper pipeline for every program -- the paper's motivating "
        "trend."
    )
    return report


def _classify_cell(program: str, predictor: str) -> Cell:
    return Cell.make(program, predictor, CLASSIFICATION_SIZE, kind=CLASSIFY)


def cells_classification(ctx: ExperimentContext) -> list[Cell]:
    """One classify cell per (program, predictor)."""
    return [_classify_cell(program, predictor) for program in PROGRAMS
            for predictor in CLASSIFICATION_PREDICTORS]


def run_classification(ctx: ExperimentContext) -> ExperimentReport:
    """Chang-style class breakdown with per-class predictor accuracy."""
    return synthesize_classification(
        ctx, execute_cells(ctx, cells_classification(ctx))
    )


def synthesize_classification(
    ctx: ExperimentContext, results: dict
) -> ExperimentReport:
    """Build the classification report from the classify cells."""
    report = ExperimentReport(
        experiment_id="classification",
        title="Branch classification by bias, with per-class accuracy "
              "(Chang et al., basis of Static_95)",
    )
    size = CLASSIFICATION_SIZE
    for program in PROGRAMS:
        by_bimodal = results[_classify_cell(program, "bimodal")]
        by_gshare = results[_classify_cell(program, "gshare")]
        table = report.add_table(
            f"{program}: class breakdown (accuracy at {size // KIB}KB)",
            ["class", "static branches", "dynamic share",
             "bimodal accuracy", "gshare accuracy"],
        )
        for bias_class in BiasClass:
            bimodal_stats = by_bimodal.stats(bias_class)
            gshare_stats = by_gshare.stats(bias_class)
            table.rows.append(
                [
                    bias_class.value,
                    bimodal_stats.static_branches,
                    f"{by_bimodal.dynamic_fraction(bias_class):.1%}",
                    f"{bimodal_stats.predictor_accuracy:.1%}"
                    if bimodal_stats.predictor_measured else "-",
                    f"{gshare_stats.predictor_accuracy:.1%}"
                    if gshare_stats.predictor_measured else "-",
                ]
            )
        report.data[program] = {
            "breakdown": by_bimodal,
            "highly_biased": by_bimodal.highly_biased_dynamic_fraction(),
        }
    report.notes.append(
        "Reading: bimodal is already near-perfect on the highly biased "
        "tails (so Static_95 duplicates it) while the middle classes are "
        "where history predictors earn their keep -- the class-level "
        "version of the paper's complementary-principles argument."
    )
    return report
