"""Branch classification by run-time bias (Chang, Hao, Yeh & Patt).

Section 3 of the paper: "Chung et al. propose a branch classification
mechanism.  Branches are put into different categories depending on
their run-time behavior.  Branches in different categories are predicted
by different predictors at run-time. ... One of our schemes for static
prediction (Static_95) is based on this work.  We identify mostly
taken/not-taken (highly biased) branches as 'easy to predict' branches."

The classic classification buckets branches by taken-rate into six
classes; this module implements it over a
:class:`~repro.profiling.profile.ProgramProfile` and, given a per-branch
:class:`~repro.profiling.accuracy.AccuracyProfile`, reports how a dynamic
predictor fares on each class -- the per-class view that explains *why*
``Static_95`` helps some predictors and not others.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.profiling.accuracy import AccuracyProfile
from repro.profiling.profile import ProgramProfile

__all__ = ["BiasClass", "ClassBreakdown", "classify_branches"]


class BiasClass(enum.Enum):
    """Taken-rate bands, after Chang et al.'s classification.

    The band edges follow the common presentation of the scheme: the
    one-sided 5% tails are the "highly biased" classes Static_95
    targets.
    """

    MOSTLY_NOT_TAKEN = "mostly-not-taken"   # taken rate [0, 5%]
    NOT_TAKEN = "not-taken"                 # (5%, 25%]
    WEAKLY_NOT_TAKEN = "weakly-not-taken"   # (25%, 50%]
    WEAKLY_TAKEN = "weakly-taken"           # (50%, 75%]
    TAKEN = "taken"                         # (75%, 95%)
    MOSTLY_TAKEN = "mostly-taken"           # [95%, 100%]

    @classmethod
    def of(cls, taken_rate: float) -> "BiasClass":
        """Classify one taken-rate."""
        if taken_rate <= 0.05:
            return cls.MOSTLY_NOT_TAKEN
        if taken_rate <= 0.25:
            return cls.NOT_TAKEN
        if taken_rate <= 0.50:
            return cls.WEAKLY_NOT_TAKEN
        if taken_rate <= 0.75:
            return cls.WEAKLY_TAKEN
        if taken_rate < 0.95:
            return cls.TAKEN
        return cls.MOSTLY_TAKEN

    @property
    def highly_biased(self) -> bool:
        """Whether the class is one of the 5% tails (Static_95's prey)."""
        return self in (BiasClass.MOSTLY_TAKEN, BiasClass.MOSTLY_NOT_TAKEN)


@dataclass(slots=True)
class ClassStats:
    """Aggregates for one bias class."""

    static_branches: int = 0
    executions: int = 0
    predictor_correct: int = 0
    predictor_measured: int = 0
    """Executions for which predictor accuracy data was available."""

    @property
    def predictor_accuracy(self) -> float:
        """Dynamic predictor accuracy over this class (0 if unmeasured)."""
        if self.predictor_measured == 0:
            return 0.0
        return self.predictor_correct / self.predictor_measured


@dataclass(slots=True)
class ClassBreakdown:
    """Classification of a whole program run."""

    program_name: str
    classes: dict[BiasClass, ClassStats] = field(default_factory=dict)

    def stats(self, bias_class: BiasClass) -> ClassStats:
        """Stats for one class (empty stats if no branches fell in it)."""
        return self.classes.get(bias_class, ClassStats())

    @property
    def total_executions(self) -> int:
        return sum(s.executions for s in self.classes.values())

    def dynamic_fraction(self, bias_class: BiasClass) -> float:
        """Fraction of dynamic executions in a class."""
        total = self.total_executions
        if total == 0:
            return 0.0
        return self.stats(bias_class).executions / total

    def to_dict(self) -> dict:
        """JSON-safe form; classes keep their insertion order."""
        return {
            "program_name": self.program_name,
            "classes": [
                [bias_class.value, stats.static_branches, stats.executions,
                 stats.predictor_correct, stats.predictor_measured]
                for bias_class, stats in self.classes.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassBreakdown":
        """Inverse of :meth:`to_dict`; raises ReproError when malformed."""
        try:
            return cls(data["program_name"], {
                BiasClass(name): ClassStats(static, executions, correct,
                                            measured)
                for name, static, executions, correct, measured
                in data["classes"]
            })
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed ClassBreakdown payload: {exc}"
            ) from exc

    def highly_biased_dynamic_fraction(self) -> float:
        """Table 2's quantity, via the classification (bias >= 95%).

        Note the class edges make this a ``>= 0.95`` bucket whereas
        Table 2 uses a strict ``> 0.95`` cutoff; the difference is the
        measure-zero boundary.
        """
        return sum(
            self.dynamic_fraction(c) for c in BiasClass if c.highly_biased
        )

    def rows(self) -> list[list[object]]:
        """Render-ready rows (class, static count, dyn %, accuracy)."""
        total = self.total_executions or 1
        result: list[list[object]] = []
        for bias_class in BiasClass:
            stats = self.stats(bias_class)
            result.append(
                [
                    bias_class.value,
                    stats.static_branches,
                    f"{stats.executions / total:.1%}",
                    f"{stats.predictor_accuracy:.1%}"
                    if stats.predictor_measured
                    else "-",
                ]
            )
        return result


def classify_branches(
    profile: ProgramProfile,
    accuracy: AccuracyProfile | None = None,
) -> ClassBreakdown:
    """Classify every profiled branch; optionally fold in accuracy data.

    With ``accuracy`` given, each class also reports the dynamic
    predictor's execution-weighted accuracy on its branches, showing at a
    glance which classes the predictor already handles (the paper's
    argument for why bimodal + Static_95 is redundant while
    ghist + Static_95 is complementary).
    """
    breakdown = ClassBreakdown(program_name=profile.program_name)
    for address, branch in profile.items():
        bias_class = BiasClass.of(branch.taken_rate)
        stats = breakdown.classes.get(bias_class)
        if stats is None:
            stats = ClassStats()
            breakdown.classes[bias_class] = stats
        stats.static_branches += 1
        stats.executions += branch.executions
        if accuracy is not None:
            record = accuracy.get(address)
            if record is not None:
                stats.predictor_measured += record.executions
                stats.predictor_correct += record.correct
    return breakdown
