"""First-order front-end (fetch engine) cycle model.

The model is deliberately simple and fully documented rather than
pretending to be cycle-accurate:

* Instructions arrive in fetch blocks of up to ``fetch_width`` per cycle.
  The ``gap`` of each trace record (the instructions up to and including
  its branch) costs ``ceil(gap / fetch_width)`` cycles -- branch records
  end fetch regions, which is how real fetch engines behave for taken
  control flow.
* A branch *predicted taken* breaks the fetch stream: the target enters
  fetch next cycle plus ``taken_bubble`` dead cycles (the classic
  fetch-bubble of a taken branch, even when predicted correctly).
* A *mispredicted* branch squashes the wrong path and redirects fetch
  after ``redirect_penalty`` cycles (the pipeline depth the paper's
  "increasingly deeper" remark is about -- roughly 7 for the Alpha
  21264 generation).

What the model ignores (on purpose): back-end stalls, cache misses,
wrong-path fetch bandwidth contention, and overlap between redirect and
fetch.  Those affect all predictor configurations roughly equally, so
IPC *deltas* between configurations -- which is what the experiments
report -- are meaningful even though absolute IPC is optimistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.combined import CombinedPredictor
from repro.errors import ConfigurationError, ReproError
from repro.predictors.base import BranchPredictor
from repro.utils.records import record_from_dict, record_to_dict
from repro.workloads.trace import BranchTrace

__all__ = [
    "PipelineResult", "HintedPipelineRuns", "FrontEndSimulator",
    "REDIRECT_PENALTIES",
]

REDIRECT_PENALTIES = (7, 20)
"""Redirect penalties: Alpha-21264-class and deep-modern-class."""


@dataclass(slots=True)
class PipelineResult:
    """Cycle accounting for one trace under one predictor."""

    program_name: str
    predictor_name: str
    instructions: int
    branches: int
    mispredictions: int
    fetch_cycles: int
    """Cycles spent fetching instruction blocks."""
    taken_bubble_cycles: int
    """Dead cycles after correctly-predicted taken branches."""
    redirect_cycles: int
    """Dead cycles repairing mispredictions."""

    @property
    def cycles(self) -> int:
        """Total modelled cycles."""
        return self.fetch_cycles + self.taken_bubble_cycles + self.redirect_cycles

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def redirect_overhead(self) -> float:
        """Fraction of cycles lost to mispredictions -- the cost the
        paper's scheme attacks."""
        cycles = self.cycles
        if cycles == 0:
            return 0.0
        return self.redirect_cycles / cycles

    @property
    def misp_per_ki(self) -> float:
        """The paper's metric, for cross-checking against simulate()."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.instructions

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.program_name}/{self.predictor_name}: "
            f"IPC {self.ipc:.3f} (fetch {self.fetch_cycles}, "
            f"bubbles {self.taken_bubble_cycles}, "
            f"redirects {self.redirect_cycles} cycles; "
            f"{self.redirect_overhead:.1%} redirect overhead)"
        )

    def to_dict(self) -> dict:
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineResult":
        return record_from_dict(cls, data)


@dataclass(slots=True)
class HintedPipelineRuns:
    """One predictor's front-end runs alone and under static hints.

    ``runs`` maps each redirect penalty to its ``(dynamic, hinted)``
    pair of results.
    """

    runs: dict[int, tuple[PipelineResult, PipelineResult]]

    @classmethod
    def measure(
        cls,
        trace: BranchTrace,
        make_dynamic: Callable[[], BranchPredictor],
        hints,
    ) -> "HintedPipelineRuns":
        """Run a 4-wide front end over ``trace`` at each of
        :data:`REDIRECT_PENALTIES`, once with a fresh ``make_dynamic()``
        predictor alone and once with it under ``hints`` (a
        :class:`~repro.staticpred.hints.HintAssignment`)."""
        runs = {}
        for penalty in REDIRECT_PENALTIES:
            frontend = FrontEndSimulator(fetch_width=4,
                                         redirect_penalty=penalty,
                                         taken_bubble=1)
            base = frontend.run(trace, make_dynamic())
            hinted = frontend.run(
                trace, CombinedPredictor(make_dynamic(), hints)
            )
            runs[penalty] = (base, hinted)
        return cls(runs)

    def to_dict(self) -> dict:
        return {"runs": [[penalty, base.to_dict(), hinted.to_dict()]
                         for penalty, (base, hinted) in self.runs.items()]}

    @classmethod
    def from_dict(cls, data: dict) -> "HintedPipelineRuns":
        try:
            return cls({
                int(penalty): (PipelineResult.from_dict(base),
                               PipelineResult.from_dict(hinted))
                for penalty, base, hinted in data["runs"]
            })
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed HintedPipelineRuns payload: {exc}"
            ) from exc


class FrontEndSimulator:
    """Trace-driven fetch-engine simulation around any branch predictor."""

    def __init__(
        self,
        fetch_width: int = 4,
        redirect_penalty: int = 7,
        taken_bubble: int = 1,
    ):
        if fetch_width < 1:
            raise ConfigurationError(
                f"fetch_width must be >= 1, got {fetch_width}"
            )
        if redirect_penalty < 0:
            raise ConfigurationError(
                f"redirect_penalty must be >= 0, got {redirect_penalty}"
            )
        if taken_bubble < 0:
            raise ConfigurationError(
                f"taken_bubble must be >= 0, got {taken_bubble}"
            )
        self.fetch_width = fetch_width
        self.redirect_penalty = redirect_penalty
        self.taken_bubble = taken_bubble

    def run(self, trace: BranchTrace, predictor: BranchPredictor) -> PipelineResult:
        """Simulate the front end over ``trace`` with ``predictor``.

        The predictor is trained in place (pass a fresh instance for
        independent runs); a :class:`CombinedPredictor` works unchanged,
        so the IPC effect of static hints falls straight out.
        """
        width = self.fetch_width
        redirect_penalty = self.redirect_penalty
        taken_bubble = self.taken_bubble
        predict = predictor.predict
        update = predictor.update
        addresses = trace.addresses
        outcomes = trace.outcomes
        gaps = trace.gaps

        mispredictions = 0
        fetch_cycles = 0
        taken_bubble_cycles = 0
        redirect_cycles = 0

        for i in range(len(addresses)):
            address = addresses[i]
            taken = outcomes[i]
            gap = gaps[i]
            predicted = predict(address)
            update(address, taken, predicted)
            # ceil(gap / width) without floats.
            fetch_cycles += -(-gap // width)
            if predicted != taken:
                mispredictions += 1
                redirect_cycles += redirect_penalty
            elif taken:
                taken_bubble_cycles += taken_bubble

        return PipelineResult(
            program_name=trace.program_name,
            predictor_name=predictor.name,
            instructions=trace.instruction_count,
            branches=len(addresses),
            mispredictions=mispredictions,
            fetch_cycles=fetch_cycles,
            taken_bubble_cycles=taken_bubble_cycles,
            redirect_cycles=redirect_cycles,
        )

    def speedup(
        self,
        trace: BranchTrace,
        base: BranchPredictor,
        improved: BranchPredictor,
    ) -> float:
        """IPC ratio of ``improved`` over ``base`` on the same trace."""
        base_result = self.run(trace, base)
        improved_result = self.run(trace, improved)
        if improved_result.cycles == 0:
            return 1.0
        return base_result.cycles / improved_result.cycles
