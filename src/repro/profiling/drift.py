"""Train-versus-ref behaviour drift analysis (Table 5 of the paper).

Table 5 reports, for each program, how branch behaviour changes when the
input moves from ``train`` to ``ref``:

* **coverage** -- what fraction of the branches executed under ``ref``
  were also seen under ``train`` (static count and dynamic,
  execution-weighted);
* **majority direction change** -- branches whose majority direction
  reverses between the inputs;
* **bias change < 5% / > 50%** -- branches whose taken-rate moves a
  little (safe to keep in a merged profile) or a lot (the branches that
  make naive cross-training dangerous).

Bias change here is measured on the *taken-rate* (|taken_rate_train -
taken_rate_ref|), which ranges over [0, 1] and makes "changes by more
than 50%" meaningful; a full reversal of a 97%-taken branch scores 0.94.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiling.profile import ProgramProfile
from repro.utils.records import record_from_dict, record_to_dict
from repro.workloads.trace import BranchTrace

__all__ = [
    "DRIFT_LENGTH_FACTOR", "DriftReport", "analyze_drift",
    "analyze_trace_drift",
]

DRIFT_LENGTH_FACTOR = 3
"""Table 5 profiles traces this many times the measurement length.
Profiling needs no predictor simulation, so it can afford longer runs;
short traces would understate coverage purely through sampling (the
paper's profiling runs cover billions of branches)."""

TABLE5_MIN_REF_EXECUTIONS = 8
"""Table 5 ignores ref branches too cold to tell "unreachable under
train" from "missed by sampling"."""


@dataclass(slots=True)
class DriftReport:
    """Drift statistics between two profiles of the same program.

    All ``*_static`` fields are fractions of the *common* static branches
    (seen under both inputs) unless noted; ``*_dynamic`` fields weight
    each branch by its ref-input execution count, because a reversal on a
    hot branch is what actually destroys cross-trained static prediction.
    """

    program_name: str
    ref_branches: int
    """Static branches executed under ref."""
    common_branches: int
    """Static branches executed under both inputs."""
    coverage_static: float
    """common / ref (Table 5 "Seen with ..." column)."""
    coverage_dynamic: float
    """Fraction of ref executions from branches seen under train."""
    majority_change_static: float
    majority_change_dynamic: float
    small_change_static: float
    """Bias (taken-rate) change < 5% -- stable branches."""
    small_change_dynamic: float
    large_change_static: float
    """Bias (taken-rate) change > 50% -- dangerous branches."""
    large_change_dynamic: float

    def to_dict(self) -> dict:
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DriftReport":
        return record_from_dict(cls, data)


def analyze_drift(
    train: ProgramProfile,
    ref: ProgramProfile,
    small_threshold: float = 0.05,
    large_threshold: float = 0.50,
    min_ref_executions: int = 1,
) -> DriftReport:
    """Compare a train profile against a ref profile (Table 5).

    ``min_ref_executions`` restricts the analysis to ref branches with at
    least that many executions.  The paper profiles billions of branches,
    so "not seen under train" means unreachable; with sampled traces a
    cold branch can be absent by chance, and raising the threshold keeps
    the coverage column about reachability rather than sampling.
    """
    if min_ref_executions > 1:
        ref = ref.filtered(lambda _a, p: p.executions >= min_ref_executions)
    ref_total_executions = ref.total_executions or 1
    common = 0
    common_executions = 0
    majority_static = 0
    majority_dynamic = 0
    small_static = 0
    small_dynamic = 0
    large_static = 0
    large_dynamic = 0

    for address, ref_profile in ref.items():
        train_profile = train.get(address)
        if train_profile is None:
            continue
        common += 1
        common_executions += ref_profile.executions
        change = abs(train_profile.taken_rate - ref_profile.taken_rate)
        if train_profile.majority_taken != ref_profile.majority_taken:
            majority_static += 1
            majority_dynamic += ref_profile.executions
        if change < small_threshold:
            small_static += 1
            small_dynamic += ref_profile.executions
        if change > large_threshold:
            large_static += 1
            large_dynamic += ref_profile.executions

    common_denominator = common or 1
    common_exec_denominator = common_executions or 1
    return DriftReport(
        program_name=ref.program_name,
        ref_branches=len(ref),
        common_branches=common,
        coverage_static=common / (len(ref) or 1),
        coverage_dynamic=common_executions / ref_total_executions,
        majority_change_static=majority_static / common_denominator,
        majority_change_dynamic=majority_dynamic / common_exec_denominator,
        small_change_static=small_static / common_denominator,
        small_change_dynamic=small_dynamic / common_exec_denominator,
        large_change_static=large_static / common_denominator,
        large_change_dynamic=large_dynamic / common_exec_denominator,
    )


def analyze_trace_drift(train: BranchTrace, ref: BranchTrace) -> DriftReport:
    """Table 5's comparison of a train trace against a ref trace."""
    return analyze_drift(
        ProgramProfile.from_trace(train), ProgramProfile.from_trace(ref),
        min_ref_executions=TABLE5_MIN_REF_EXECUTIONS,
    )
