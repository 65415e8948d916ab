"""Tests for the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from arith import (  # noqa: E402
    Span,
    cancelled_tracebacks,
    error_counts,
    median,
    min_samples,
    percentile,
    self_time_by_name,
    self_times,
    unattributed,
)


class TestPercentile:
    def test_p99_needs_1000_samples(self):
        assert min_samples(99) == 1000
        with pytest.raises(ValueError, match="at least 1000 samples, got 999"):
            percentile([1.0] * 999, 99)

    def test_p99_leaves_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 1001)]
        assert percentile(samples, 99) == 990.0
        assert sum(1 for s in samples if s > percentile(samples, 99)) == 10

    def test_p50_nearest_rank(self):
        assert min_samples(50) == 20
        assert percentile([float(i) for i in range(20, 0, -1)], 50) == 10.0

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        with pytest.raises(ValueError):
            median([])


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span("runner.execute", 0.0, 10.0),
            Span("core.simulate", 1.0, 7.0, parent=0),
            Span("kernels.fast", 2.0, 3.0, parent=1),
            Span("kernels.fast", 4.0, 6.0, parent=1),
            Span("runner.cache_put", 8.0, 9.0, parent=0),
        ]
        assert self_times(spans) == [3.0, 3.0, 1.0, 2.0, 1.0]
        assert self_time_by_name(spans) == {
            "runner.execute": 3.0, "core.simulate": 3.0,
            "kernels.fast": 3.0, "runner.cache_put": 1.0,
        }

    def test_self_times_sum_to_root_duration(self):
        spans = [
            Span("a", 0.0, 5.0),
            Span("b", 1.0, 4.0, parent=0),
            Span("c", 2.0, 3.0, parent=1),
        ]
        assert sum(self_times(spans)) == pytest.approx(5.0)


class TestUnattributed:
    def test_wall_minus_layer_self_time(self):
        spans = [
            Span("runner.execute", 1.0, 9.0),
            Span("core.simulate", 2.0, 8.0, parent=0),
        ]
        assert unattributed(10.0, self_time_by_name(spans)) == pytest.approx(2.0)

    def test_no_spans_leaves_the_whole_wall(self):
        assert unattributed(4.0, {}) == 4.0


class TestErrorCounts:
    def test_rejected_timed_out_and_mismatched_fail(self):
        outcomes = ["ok"] * 6 + ["rejected", "timeout", "mismatch", "error"]
        assert error_counts(outcomes) == (10, 4, 0.4)

    def test_all_ok(self):
        assert error_counts(["ok"] * 3) == (3, 0, 0.0)

    def test_unknown_outcome_refused(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            error_counts(["ok", "lost"])


SHUTDOWN_STDERR = """\
serving on 127.0.0.1:40000
Task exception was never retrieved
Traceback (most recent call last):
  File "server.py", line 180, in _handle
    line = await reader.readline()
asyncio.exceptions.CancelledError

During handling of the above exception, another exception occurred:

Traceback (most recent call last):
  File "server.py", line 199, in _handle
    await writer.wait_closed()
asyncio.exceptions.CancelledError
Traceback (most recent call last):
  File "server.py", line 199, in _handle
    await writer.wait_closed()
asyncio.exceptions.CancelledError
Traceback (most recent call last):
  File "cli.py", line 1, in main
ValueError: unrelated
"""


class TestCancelledTracebacks:
    def test_chained_traceback_counts_once(self):
        assert cancelled_tracebacks(SHUTDOWN_STDERR) == 2

    def test_clean_stderr(self):
        assert cancelled_tracebacks("serving on 127.0.0.1:40000\n") == 0
