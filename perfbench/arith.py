"""The benchmark's own arithmetic: percentiles, span self time, error rate.

Kept free of any ``repro`` import so the tests in ``perfbench/tests``
exercise it without the package on the path.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot set it.
MIN_BEYOND = 10


def median(samples: list[float]) -> float:
    """The median of a non-empty sample list."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def min_samples(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile has
    :data:`MIN_BEYOND` samples beyond it (1000 for p99)."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; refuses too few samples."""
    needed = min_samples(q)
    if len(samples) < needed:
        raise ValueError(
            f"p{q:g} needs at least {needed} samples, got {len(samples)}"
        )
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


@dataclass(slots=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span on
    the same thread, or -1."""

    name: str
    start: float
    end: float
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its child spans.

    Children come from the same thread's span stack, so they nest
    inside their parent and never overlap each other.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def unattributed(wall: float, self_by_name: dict[str, float]) -> float:
    """Wall time no layer span accounts for."""
    return wall - sum(self_by_name.values())


#: Operation outcomes.  Anything but ``ok`` is a failed operation.
OUTCOMES = ("ok", "mismatch", "rejected", "error", "timeout")


def error_counts(outcomes: list[str]) -> tuple[int, int, float]:
    """``(attempted, failed, error_rate)`` over per-operation outcomes."""
    unknown = set(outcomes) - set(OUTCOMES)
    if unknown:
        raise ValueError(f"unknown outcome(s): {', '.join(sorted(unknown))}")
    attempted = len(outcomes)
    failed = sum(1 for outcome in outcomes if outcome != "ok")
    return attempted, failed, (failed / attempted if attempted else 0.0)


_CHAINED = re.compile(
    r"(During handling of the above exception, another exception occurred:"
    r"|The above exception was the direct cause of the following exception:)"
    r"\s*Traceback \(most recent call last\):"
)


def cancelled_tracebacks(stderr: str) -> int:
    """Tracebacks in ``stderr`` that involve a ``CancelledError``; a
    chain of tracebacks counts once."""
    chunks = _CHAINED.sub("", stderr).split("Traceback (most recent call last):")
    return sum("CancelledError" in chunk for chunk in chunks[1:])
