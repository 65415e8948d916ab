"""Array-backed fast simulation kernels.

The reference simulation loop in :mod:`repro.core.simulator` calls
``predict``/``update`` once per branch; CPython method dispatch makes
that the throughput ceiling of every experiment.  This package replays
a whole :class:`~repro.workloads.trace.BranchTrace` through the
predictor families behind the paper's figures -- bimodal, gshare,
ghist, bi-mode and 2bcgskew -- computing every counter index in numpy
array passes, under one non-negotiable contract:

**A fast kernel is bit-identical to the reference loop.**  Same
predictions, same final counter-table state, same history register,
same ``_PREDICT_STATE``.  Kernels are an execution detail, never an
experiment parameter -- which is why the runner's result-cache keys
deliberately exclude the kernel mode.

:func:`try_fast_simulate` dispatches to the family's one replay kernel
(``_KERNELS``, see :mod:`repro.kernels.dynamic`) and returns a
:class:`Replay`, from which every measurement derives.  A combined
predictor over a kernel family replays as a hint mask plus its family.

Dispatch is by exact predictor type (subclasses may override
``predict``/``update``, so they fall back), selected by the
``kernel`` knob on :func:`repro.core.simulator.simulate`:

``"auto"``
    Use a fast kernel when numpy is importable and the predictor has
    one; otherwise run the reference loop.  The default everywhere.
``"fast"``
    Like ``"auto"`` but a missing numpy is a
    :class:`~repro.errors.ConfigurationError` instead of a silent
    fallback.  Predictors with no kernel (agree, yags, local,
    tournament), bare or combined, still use the reference loop.
``"reference"``
    Always run the per-branch loop (the baseline the differential
    tests and `repro bench` compare against).

Every fallback logs its reason at DEBUG on the ``repro.kernels``
logger: ``numpy-missing``, ``no-kernel:<family>`` or ``over-limits``.
numpy is imported lazily, so the reference loop works without it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.kernels import dynamic
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.collisions import CollisionCounts
from repro.predictors.ghist import GhistPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import TwoBcGskewPredictor
from repro.workloads.trace import BranchTrace

__all__ = [
    "KERNEL_MODES",
    "Replay",
    "address_groups",
    "numpy_available",
    "try_fast_simulate",
    "validate_kernel_mode",
]

KERNEL_MODES = ("auto", "fast", "reference")

_KERNELS = {
    BimodalPredictor: dynamic.replay_bimodal,
    GsharePredictor: dynamic.replay_gshare,
    GhistPredictor: dynamic.replay_ghist,
    BiModePredictor: dynamic.replay_bimode,
    TwoBcGskewPredictor: dynamic.replay_2bcgskew,
}

logger = logging.getLogger(__name__)


def numpy_available() -> bool:
    """True when numpy can be imported (cheap after the first call)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def validate_kernel_mode(kernel: str) -> str:
    """Return ``kernel`` or raise :class:`ConfigurationError`."""
    if kernel not in KERNEL_MODES:
        raise ConfigurationError(
            f"unknown kernel mode {kernel!r}; expected one of "
            + ", ".join(KERNEL_MODES)
        )
    return kernel


def _within_limits(predictor: BranchPredictor, trace: BranchTrace) -> bool:
    """Conservative numeric-headroom guards (see repro.kernels.dynamic)."""
    lookups = len(trace) * len(predictor.table_entry_counts())
    if lookups >= dynamic.MAX_TRACE_LENGTH:
        return False
    table = getattr(predictor, "table", None)
    if table is not None and table.bits > dynamic.MAX_COUNTER_BITS:
        return False
    history = getattr(predictor, "history", None)
    if history is not None and history.length > dynamic.MAX_HISTORY_LENGTH:
        return False
    return True


@dataclass(slots=True, eq=False)
class Replay:
    """One whole-trace replay, and the measurements derived from it.

    ``addresses``/``outcomes`` are the trace columns and
    ``predictions`` every branch's prediction (a static branch's is its
    hint direction).  ``indices`` is the counter index of each *table
    event* -- each branch that looked up the dynamic table -- and
    ``events`` their trace positions, or ``None`` when every branch did.
    A multi-bank family's ``indices`` is a ``(tables, events)`` array
    of table-offset counter ids, one row per table each event reads.
    """

    addresses: Any
    outcomes: Any
    predictions: Any
    indices: Any
    events: Any = None

    @property
    def mispredictions(self) -> int:
        import numpy

        return int(numpy.count_nonzero(self.predictions != self.outcomes))

    def collision_pairs(self):
        """``(victims, aggressors)``: trace positions of both parties
        of every tag collision.  Section 5's tag holds "the address of
        the last branch using that counter": the previous table event on
        the same index, which a stable sort by index puts right before
        each event.  A collision is such a predecessor with a different
        address.  Table-offset ids keep the banks' tags apart, so a
        multi-bank run sorts all its lookups at once; a lookup's
        position in the raveled rows, modulo the event count, is its
        event."""
        import numpy

        indices = self.indices.ravel()
        order = numpy.argsort(indices, kind="stable").astype(numpy.int32)
        sorted_indices = indices[order]
        same = sorted_indices[1:] == sorted_indices[:-1]
        victims = order[1:][same]
        aggressors = order[:-1][same]
        del order, sorted_indices, same
        if self.indices.ndim > 1:
            victims %= self.indices.shape[1]
            aggressors %= self.indices.shape[1]
        if self.events is not None:
            victims = self.events[victims]
            aggressors = self.events[aggressors]
        colliding = self.addresses[victims] != self.addresses[aggressors]
        return victims[colliding], aggressors[colliding]

    def collision_counts(self) -> CollisionCounts:
        """What a fresh :class:`~repro.predictors.collisions.CollisionTracker`
        would have counted over this run."""
        import numpy

        victims, _ = self.collision_pairs()
        collisions = int(victims.shape[0])
        constructive = int(numpy.count_nonzero(
            self.predictions[victims] == self.outcomes[victims]))
        return CollisionCounts(
            lookups=int(self.indices.size),
            collisions=collisions,
            constructive=constructive,
            destructive=collisions - constructive,
        )


def address_groups(addresses):
    """``(unique, ids)``: the distinct addresses of a trace column in
    first-execution order (a list), and each branch's position in that
    list (an int32 array).  First-execution order is the insertion order
    of the reference loops' per-branch dicts, so bincounts over ``ids``
    rebuild those dicts bit-identically."""
    import numpy

    sidx = numpy.argsort(addresses)
    sorted_addr = addresses[sidx]
    boundary = numpy.empty(sidx.shape[0], dtype=numpy.bool_)
    boundary[:1] = True
    numpy.not_equal(sorted_addr[1:], sorted_addr[:-1], out=boundary[1:])
    starts = numpy.flatnonzero(boundary)
    # The sort need not be stable: each group's first occurrence is the
    # minimum original index within the group.
    order = numpy.argsort(numpy.minimum.reduceat(sidx, starts), kind="stable")
    rank = numpy.empty(starts.shape[0], dtype=numpy.int32)
    rank[order] = numpy.arange(starts.shape[0], dtype=numpy.int32)
    ids = numpy.empty(sidx.shape[0], dtype=numpy.int32)
    ids[sidx] = rank[numpy.cumsum(boundary, dtype=numpy.int32) - 1]
    return sorted_addr[starts][order].tolist(), ids


def _fallback(reason: str) -> None:
    logger.debug("reference loop: %s", reason)
    return None


def try_fast_simulate(
    trace: BranchTrace,
    predictor: BranchPredictor,
    require: bool = False,
) -> Replay | None:
    """Replay ``trace`` through a fast kernel, if one applies.

    Returns the :class:`Replay` with the predictor's state advanced
    exactly as the reference loop would have left it, or ``None`` when
    no kernel applies and the caller should run the reference loop.
    With ``require=True`` (the ``kernel="fast"`` knob) a missing numpy
    raises instead of falling back.
    """
    if not numpy_available():
        if require:
            raise ConfigurationError(
                "kernel='fast' requires numpy, which is not importable; "
                "use kernel='auto' to fall back to the reference loop"
            )
        return _fallback("numpy-missing")
    from repro.core.combined import CombinedPredictor

    combined = predictor if type(predictor) is CombinedPredictor else None
    dynamic_predictor = predictor if combined is None else combined.dynamic
    kernel = _KERNELS.get(type(dynamic_predictor))
    if kernel is None:
        return _fallback(f"no-kernel:{dynamic_predictor.name}")
    if not _within_limits(dynamic_predictor, trace):
        return _fallback("over-limits")
    addresses, outcomes = trace.arrays()
    if combined is None:
        indices, predictions = kernel(dynamic_predictor, addresses, outcomes)
        return Replay(addresses, outcomes, predictions, indices)
    return _replay_combined(kernel, combined, addresses, outcomes)


def _replay_combined(kernel, combined, addresses, outcomes) -> Replay:
    """A combined predictor's run: a hint mask plus the family replay.

    Static branches predict their hint direction and never touch the
    table; the rest are the table events.  The history register shifts
    the table events, plus every static outcome under ``SHIFT`` or the
    flagged ones under ``PER_BRANCH``.
    """
    import numpy

    from repro.arch.isa import ShiftPolicy

    directions, shifts = combined.hint_tables()
    # -1 is never a branch address, so a run without hints matches none.
    hinted = sorted(directions) or [-1]
    keys = numpy.array(hinted, dtype=numpy.int64)
    slot = numpy.minimum(numpy.searchsorted(keys, addresses), len(hinted) - 1)
    static = keys[slot] == addresses
    predictions = numpy.array(
        [directions.get(address, False) for address in hinted])[slot]
    events = numpy.flatnonzero(~static).astype(numpy.int32)
    history_outcomes = None
    if combined.shift_policy is ShiftPolicy.SHIFT:
        history_outcomes = (outcomes, events)
    elif combined.shift_policy is ShiftPolicy.PER_BRANCH:
        # Non-static branches shift regardless of the flag they alias.
        stream = ~static | numpy.array(
            [shifts.get(address, False) for address in hinted])[slot]
        history_outcomes = (outcomes[stream],
                            numpy.cumsum(stream, dtype=numpy.int32)[events] - 1)
        del stream
    del slot, keys

    indices, dynamic_predictions = kernel(
        combined.dynamic, addresses[events], outcomes[events], history_outcomes
    )
    predictions[events] = dynamic_predictions
    combined.static_lookups += int(numpy.count_nonzero(static))
    combined.static_mispredictions += int(numpy.count_nonzero(
        predictions[static] != outcomes[static]))
    if static.shape[0]:
        combined._last_was_static = bool(static[-1])
    return Replay(addresses, outcomes, predictions, indices, events)
