"""Run every experiment and consolidate the paper-vs-measured record.

The summary's cells are the union of its members' cells, and its
synthesizer calls theirs: one pass over the shared results yields the
individual reports plus a consolidated summary report whose rows match
the EXPERIMENTS.md ledger: experiment id, the paper's headline claim,
and the measured headline number.

The CLI exposes it as ``repro run summary`` (or, serially, ``repro
experiment summary``) -- the one-command regeneration of the whole
evaluation section.
"""

from __future__ import annotations

from repro.experiments import (
    ablations,
    figure13,
    figures_gshare,
    figures_schemes,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.common import PROGRAMS, ExperimentContext
from repro.experiments.report import ExperimentReport
from repro.runner import Cell, execute_cells

__all__ = ["run_all", "cells", "synthesize"]


def _gshare_headline(report: ExperimentReport) -> tuple[float, float]:
    """(best, worst) static improvement over the size sweep of one program."""
    gains = []
    for base, static in zip(report.data["misp_none"], report.data["misp_static"]):
        gains.append((base - static) / base if base else 0.0)
    return max(gains), min(gains)


def cells(ctx: ExperimentContext) -> list[Cell]:
    """The union of every member experiment's cells."""
    members = (
        table1.cells(ctx) + table2.cells(ctx) + figures_gshare.cells(ctx)
        + figures_schemes.cells(ctx) + table3.cells(ctx) + table4.cells(ctx)
        + table5.cells(ctx) + figure13.cells(ctx)
        + ablations.cells_shootout(ctx)
    )
    return list(dict.fromkeys(members))


def run_all(ctx: ExperimentContext) -> ExperimentReport:
    """Execute the full evaluation and produce the consolidated summary."""
    return synthesize(ctx, execute_cells(ctx, cells(ctx)))


def synthesize(ctx: ExperimentContext, results: dict) -> ExperimentReport:
    """Build every member report, and the ledger over them."""
    summary = ExperimentReport(
        experiment_id="summary",
        title="Consolidated paper-vs-measured summary (all tables & figures)",
    )
    ledger = summary.add_table(
        "Headline results",
        ["experiment", "paper headline", "measured"],
    )

    # Table 1 -- branch densities.
    t1 = table1.synthesize(ctx, results)
    gcc_row = next(row for row in t1.tables[0].rows if row[0] == "gcc")
    ledger.rows.append([
        "table1",
        "gcc densest at 156 CBRs/KI (ref)",
        f"gcc measured {gcc_row[7]} CBRs/KI",
    ])
    summary.data["table1"] = t1

    # Table 2 -- bias/accuracy correlation.
    t2 = table2.synthesize(ctx, results)
    accuracy = t2.data["accuracy"]
    ledger.rows.append([
        "table2",
        "accuracy rises with biased fraction; go hardest, m88ksim easiest",
        f"go 2bcgskew {accuracy['go']['2bcgskew']:.1%}, "
        f"m88ksim 2bcgskew {accuracy['m88ksim']['2bcgskew']:.1%}",
    ])
    summary.data["table2"] = t2

    # Figures 1-6 -- gshare sweeps.
    for program in PROGRAMS:
        report = figures_gshare.synthesize_program(ctx, program, results)
        best, worst = _gshare_headline(report)
        ledger.rows.append([
            report.experiment_id,
            f"{program}: static always improves gshare, most at small sizes",
            f"gain {best:+.1%} (smallest size) .. {worst:+.1%} (largest)",
        ])
        summary.data[report.experiment_id] = report

    # Figures 7-12 -- scheme panels.
    for program in PROGRAMS:
        report = figures_schemes.synthesize_program(ctx, program, results)
        misp = report.data["misp"]
        ghist_gain = 0.0
        if misp["ghist"]["none"]:
            ghist_gain = (misp["ghist"]["none"] - misp["ghist"]["static_95"]) / misp["ghist"]["none"]
        bimodal_change = 0.0
        if misp["bimodal"]["none"]:
            bimodal_change = (misp["bimodal"]["none"] - misp["bimodal"]["static_95"]) / misp["bimodal"]["none"]
        ledger.rows.append([
            report.experiment_id,
            f"{program}: ghist+static_95 gains, bimodal+static_95 flat",
            f"ghist {ghist_gain:+.1%}, bimodal {bimodal_change:+.1%}",
        ])
        summary.data[report.experiment_id] = report

    # Table 3 -- 2bcgskew improvements.
    t3 = table3.synthesize(ctx, results)
    ledger.rows.append([
        "table3",
        "2bcgskew gains shrink with size; gcc +13-14% at 2KB",
        f"gcc static_acc {t3.data['gcc']['static_acc'][0]:+.1%} at 2KB, "
        f"{t3.data['gcc']['static_acc'][-1]:+.1%} at 32KB",
    ])
    summary.data["table3"] = t3

    # Table 4 -- the shift knob.
    t4 = table4.synthesize(ctx, results)
    improvements = t4.data["improvements"]
    rescued = sum(
        1 for cell in improvements.values()
        if cell["static_acc"] < -0.005
        and cell["static_acc+shift"] > cell["static_acc"]
    )
    degraded = sum(
        1 for cell in improvements.values() if cell["static_acc"] < -0.005
    )
    ledger.rows.append([
        "table4",
        "shifting rescues static_acc degradations",
        f"{rescued}/{degraded} static_acc degradation cells rescued by shift",
    ])
    summary.data["table4"] = t4

    # Table 5 -- drift.
    t5 = table5.synthesize(ctx, results)
    coverages = {p: t5.data[p].coverage_static for p in PROGRAMS}
    ledger.rows.append([
        "table5",
        "perl has the lowest train coverage",
        f"lowest coverage: {min(coverages, key=coverages.get)} "
        f"({min(coverages.values()):.0%})",
    ])
    summary.data["table5"] = t5

    # Figure 13 -- cross-training.
    f13 = figure13.synthesize(ctx, results)
    misp13 = f13.data["misp"]
    perl = misp13["perl"]
    ledger.rows.append([
        "figure13",
        "naive cross-training blows up perl/m88ksim; filtering rescues",
        f"perl none {perl['none']:.2f} / naive {perl['cross-naive']:.2f} / "
        f"filtered {perl['cross-filtered']:.2f} MISP/KI",
    ])
    summary.data["figure13"] = f13

    # Ablations.
    shootout = ablations.synthesize_shootout(ctx, results)
    gcc_shootout = shootout.data["gcc"]
    ledger.rows.append([
        "ablation-selection",
        "future-work collision scheme: most gain per hint",
        f"gcc gains: 95 {gcc_shootout['static_95']['gain']:+.1%} / "
        f"acc {gcc_shootout['static_acc']['gain']:+.1%} / "
        f"collision {gcc_shootout['static_collision']['gain']:+.1%} / "
        f"iter {gcc_shootout['static_iter']['gain']:+.1%}",
    ])
    summary.data["ablation-selection"] = shootout

    summary.notes.append(
        "Absolute MISP/KI values are not comparable to the paper "
        "(synthetic workloads, traces ~10^4x shorter); the ledger tracks "
        "shape claims.  Full per-experiment reports are in "
        "benchmarks/results/ after a benchmark run."
    )
    return summary
