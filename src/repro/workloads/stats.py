"""Trace characterization: the measurements behind Tables 1 and 2.

These functions compute workload statistics directly from a trace:
dynamic branch density (CBRs/KI), per-site execution and taken counts,
and the dynamic fraction of executions coming from highly biased
branches (Table 2's first column).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.records import record_from_dict, record_to_dict
from repro.workloads.trace import BranchTrace

__all__ = [
    "SiteStats",
    "TraceCharacterization",
    "TraceSummary",
    "characterize",
    "dynamic_highly_biased_fraction",
    "bias_histogram",
]


@dataclass(slots=True)
class SiteStats:
    """Execution statistics for one static branch site within a trace."""

    executions: int = 0
    taken: int = 0

    @property
    def taken_rate(self) -> float:
        """Fraction of executions that were taken."""
        if self.executions == 0:
            return 0.0
        return self.taken / self.executions

    @property
    def bias(self) -> float:
        """``max(taken-rate, not-taken-rate)`` -- the paper's bias."""
        rate = self.taken_rate
        return max(rate, 1.0 - rate)

    @property
    def majority_taken(self) -> bool:
        """The majority direction (ties count as taken)."""
        return self.taken * 2 >= self.executions


@dataclass(slots=True)
class TraceCharacterization:
    """Aggregate statistics for a full trace."""

    program_name: str
    input_name: str
    branch_count: int
    instruction_count: int
    static_sites_executed: int
    cbrs_per_ki: float
    taken_rate: float
    site_stats: dict[int, SiteStats]

    def dynamic_highly_biased_fraction(self, cutoff: float = 0.95) -> float:
        """Fraction of *dynamic executions* from branches with bias > cutoff.

        This is the paper's Table 2 quantity: it weights each static
        branch by how often it executes, so one hot 99%-taken branch
        counts for all of its executions.
        """
        if self.branch_count == 0:
            return 0.0
        biased_executions = sum(
            stats.executions
            for stats in self.site_stats.values()
            if stats.bias > cutoff
        )
        return biased_executions / self.branch_count

    def static_highly_biased_fraction(self, cutoff: float = 0.95) -> float:
        """Fraction of *executed static sites* with bias > cutoff."""
        if not self.site_stats:
            return 0.0
        biased_sites = sum(
            1 for stats in self.site_stats.values() if stats.bias > cutoff
        )
        return biased_sites / len(self.site_stats)

    def summary(self) -> "TraceSummary":
        """The aggregate figures without the per-site table."""
        return TraceSummary(
            program_name=self.program_name,
            input_name=self.input_name,
            branch_count=self.branch_count,
            instruction_count=self.instruction_count,
            static_sites_executed=self.static_sites_executed,
            cbrs_per_ki=self.cbrs_per_ki,
            taken_rate=self.taken_rate,
            highly_biased_fraction=self.dynamic_highly_biased_fraction(),
        )


@dataclass(frozen=True, slots=True)
class TraceSummary:
    """What Tables 1 and 2 report about one trace.

    The runner caches this per (program, input) instead of the full
    :class:`TraceCharacterization`, whose per-site table no report reads.
    """

    program_name: str
    input_name: str
    branch_count: int
    instruction_count: int
    static_sites_executed: int
    cbrs_per_ki: float
    taken_rate: float
    highly_biased_fraction: float
    """Dynamic fraction from branches with bias > 95% (Table 2)."""

    def to_dict(self) -> dict:
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSummary":
        return record_from_dict(cls, data)


def characterize(trace: BranchTrace) -> TraceCharacterization:
    """Compute per-site and aggregate statistics for a trace."""
    site_stats: dict[int, SiteStats] = {}
    taken_total = 0
    for site, taken in zip(trace.site_indices, trace.outcomes):
        stats = site_stats.get(site)
        if stats is None:
            stats = SiteStats()
            site_stats[site] = stats
        stats.executions += 1
        if taken:
            stats.taken += 1
            taken_total += 1
    branch_count = len(trace)
    instruction_count = trace.instruction_count
    return TraceCharacterization(
        program_name=trace.program_name,
        input_name=trace.input_name,
        branch_count=branch_count,
        instruction_count=instruction_count,
        static_sites_executed=len(site_stats),
        cbrs_per_ki=(1000.0 * branch_count / instruction_count)
        if instruction_count
        else 0.0,
        taken_rate=(taken_total / branch_count) if branch_count else 0.0,
        site_stats=site_stats,
    )


def dynamic_highly_biased_fraction(trace: BranchTrace, cutoff: float = 0.95) -> float:
    """Convenience wrapper: Table 2's highly-biased fraction for a trace."""
    return characterize(trace).dynamic_highly_biased_fraction(cutoff)


def bias_histogram(trace: BranchTrace, bins: int = 10) -> list[int]:
    """Histogram of per-site bias over [0.5, 1.0], execution-weighted.

    Bin ``i`` covers ``[0.5 + 0.5 * i / bins, 0.5 + 0.5 * (i + 1) / bins)``,
    with the final bin closed at 1.0.  Useful for eyeballing workload
    calibration against the mix specs.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    characterization = characterize(trace)
    histogram = [0] * bins
    for stats in characterization.site_stats.values():
        fraction = (stats.bias - 0.5) / 0.5
        index = min(int(fraction * bins), bins - 1)
        histogram[index] += stats.executions
    return histogram
