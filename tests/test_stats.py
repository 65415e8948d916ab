"""Tests for trace characterization (Tables 1 and 2 machinery)."""

import pytest

from repro.workloads.stats import (
    SiteStats,
    TraceSummary,
    bias_histogram,
    characterize,
    dynamic_highly_biased_fraction,
)
from repro.workloads.trace import BranchTrace


def make_trace(records):
    trace = BranchTrace(program_name="demo", input_name="ref")
    for site, taken, gap in records:
        trace.site_indices.append(site)
        trace.addresses.append(0x1000 + site * 4)
        trace.outcomes.append(taken)
        trace.gaps.append(gap)
    return trace


class TestSiteStats:
    def test_bias_of_balanced(self):
        stats = SiteStats(executions=10, taken=5)
        assert stats.bias == pytest.approx(0.5)

    def test_bias_of_skewed(self):
        stats = SiteStats(executions=10, taken=9)
        assert stats.bias == pytest.approx(0.9)
        assert stats.majority_taken

    def test_majority_not_taken(self):
        stats = SiteStats(executions=10, taken=2)
        assert not stats.majority_taken

    def test_tie_counts_as_taken(self):
        assert SiteStats(executions=4, taken=2).majority_taken

    def test_empty(self):
        stats = SiteStats()
        assert stats.taken_rate == 0.0
        assert stats.bias == 1.0  # never executed: vacuously "all not taken"


class TestCharacterize:
    def test_counts(self):
        trace = make_trace([(0, True, 2), (0, True, 2), (0, False, 2),
                            (1, False, 4)])
        ch = characterize(trace)
        assert ch.branch_count == 4
        assert ch.instruction_count == 10
        assert ch.static_sites_executed == 2
        assert ch.site_stats[0].executions == 3
        assert ch.site_stats[0].taken == 2
        assert ch.taken_rate == pytest.approx(0.5)
        assert ch.cbrs_per_ki == pytest.approx(400.0)

    def test_highly_biased_fraction_weighted(self):
        # Site 0: 100% taken over 8 executions (bias 1.0 > 0.95).
        # Site 1: 50% taken over 2 executions.
        records = [(0, True, 1)] * 8 + [(1, True, 1), (1, False, 1)]
        trace = make_trace(records)
        assert dynamic_highly_biased_fraction(trace) == pytest.approx(0.8)

    def test_static_fraction(self):
        records = [(0, True, 1)] * 8 + [(1, True, 1), (1, False, 1)]
        ch = characterize(make_trace(records))
        assert ch.static_highly_biased_fraction() == pytest.approx(0.5)

    def test_empty_trace(self):
        ch = characterize(make_trace([]))
        assert ch.dynamic_highly_biased_fraction() == 0.0
        assert ch.static_highly_biased_fraction() == 0.0


class TestTraceSummary:
    def test_summary_round_trips(self, gcc_trace):
        summary = characterize(gcc_trace).summary()
        assert TraceSummary.from_dict(summary.to_dict()) == summary
        assert summary.highly_biased_fraction \
            == dynamic_highly_biased_fraction(gcc_trace)


class TestBiasHistogram:
    def test_buckets(self):
        # One site all-taken (bias 1.0 -> last bin), one site 50/50
        # (bias 0.5 -> first bin).
        records = [(0, True, 1)] * 4 + [(1, True, 1), (1, False, 1)]
        histogram = bias_histogram(make_trace(records), bins=5)
        assert histogram[-1] == 4
        assert histogram[0] == 2
        assert sum(histogram) == 6

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            bias_histogram(make_trace([(0, True, 1)]), bins=0)

    def test_real_workload_histogram_total(self, gcc_trace):
        histogram = bias_histogram(gcc_trace)
        assert sum(histogram) == len(gcc_trace)
