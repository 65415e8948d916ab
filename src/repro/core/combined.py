"""The combined static + dynamic predictor (the paper's hardware model).

Section 4: "We assume that static prediction can be conveyed to the
hardware using two hint bits ... one of the bits describes the static
prediction and the processor chooses between the static and dynamic
prediction depending on the other hint bit."

For a branch whose hint says *use static*:

* the prediction is the hint's direction bit, fixed for the whole run;
* the dynamic predictor is **neither looked up nor updated** -- that is
  the whole point: the branch stops competing for dynamic counters;
* the branch's resolved outcome is shifted into the dynamic predictor's
  global history register only under the active
  :class:`~repro.arch.isa.ShiftPolicy` (Table 4 studies this knob; the
  paper's default is NO_SHIFT).

Everything else flows through to the wrapped dynamic predictor, so a
``CombinedPredictor`` satisfies the same
:class:`~repro.predictors.base.BranchPredictor` protocol and can be
simulated, collision-instrumented, and swept like any dynamic scheme.
"""

from __future__ import annotations

from repro.arch.isa import ShiftPolicy
from repro.errors import ConfigurationError
from repro.predictors.base import BranchPredictor
from repro.staticpred.hints import HintAssignment

__all__ = ["CombinedPredictor"]


class CombinedPredictor(BranchPredictor):
    """A dynamic predictor gated by per-branch static hints."""

    def __init__(
        self,
        dynamic: BranchPredictor,
        hints: HintAssignment,
        shift_policy: ShiftPolicy = ShiftPolicy.NO_SHIFT,
    ):
        if not isinstance(shift_policy, ShiftPolicy):
            raise ConfigurationError(
                f"shift_policy must be a ShiftPolicy, got {shift_policy!r}"
            )
        self.dynamic = dynamic
        self.hint_assignment = hints
        self.shift_policy = shift_policy
        self.name = f"{dynamic.name}+{hints.scheme}"
        if shift_policy is not ShiftPolicy.NO_SHIFT:
            self.name += f"+{shift_policy.value}"
        # Flat lookup tables for the hot path.
        self._static_direction: dict[int, bool] = hints.lookup_table()
        self._static_shift: dict[int, bool] = {
            a: h.shift_history
            for a, h in hints.hints.items()
            if h.use_static
        }
        # Stats the simulator reads back after a run.
        self.static_lookups = 0
        self.static_mispredictions = 0
        self._last_was_static = False

    def hint_tables(self) -> tuple[dict[int, bool], dict[int, bool]]:
        """The ``(direction, shift flag)`` tables predict/update consult,
        keyed by static branch address (read-only; for repro.kernels)."""
        return self._static_direction, self._static_shift

    @property
    def last_was_static(self) -> bool:
        """Whether the most recent predict() used a static hint."""
        return self._last_was_static

    def predict(self, address: int) -> bool:
        direction = self._static_direction.get(address)
        if direction is None:
            self._last_was_static = False
            return self.dynamic.predict(address)
        self._last_was_static = True
        self.static_lookups += 1
        return direction

    def update(self, address: int, taken: bool, predicted: bool) -> None:
        """Train on a resolved branch.

        Whether the branch is statically handled is re-resolved from the
        hint table rather than from predict-time state: the hint set is
        fixed for a run, so routing by address keeps ``update`` correct
        even if a caller skips ``predict`` (speculative squash) or calls
        ``update`` twice for one lookup.  The old behaviour -- trusting a
        ``_last_was_static`` flag left behind by ``predict`` -- trained
        the dynamic predictor on statically handled branches (or vice
        versa) whenever the predict/update pairing broke.
        """
        direction = self._static_direction.get(address)
        if direction is None:
            self.dynamic.update(address, taken, predicted)
            return
        # Static branches always predict their (run-constant) hint
        # direction, so the misprediction check uses it directly rather
        # than whatever stale value the caller passed back.
        if direction != taken:
            self.static_mispredictions += 1
        policy = self.shift_policy
        if policy is ShiftPolicy.SHIFT:
            self.dynamic.shift_history(taken)
        elif policy is ShiftPolicy.PER_BRANCH and self._static_shift.get(address):
            self.dynamic.shift_history(taken)

    def shift_history(self, taken: bool) -> None:
        self.dynamic.shift_history(taken)

    @property
    def size_bytes(self) -> float:
        """Dynamic hardware only; hint bits live in the instruction
        encoding, which is the scheme's hardware selling point."""
        return self.dynamic.size_bytes

    def table_entry_counts(self) -> list[int]:
        return self.dynamic.table_entry_counts()

    def accessed(self) -> list[tuple[int, int]]:
        """Counters touched by the last lookup: none for static branches."""
        if self._last_was_static:
            return []
        return self.dynamic.accessed()

    def static_count(self) -> int:
        """Number of statically predicted static branches."""
        return len(self._static_direction)

    def reset(self) -> None:
        self.dynamic.reset()
        self.static_lookups = 0
        self.static_mispredictions = 0
        self._last_was_static = False
