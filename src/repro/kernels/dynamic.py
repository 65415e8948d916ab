"""Whole-trace replay kernels for the hot dynamic predictors.

Each family has exactly one kernel, with one contract::

    replay(predictor, addresses, outcomes, history_outcomes=None)
        -> (indices, predictions)

It replays a stream of counter-table events -- every branch of a plain
run, the dynamically predicted branches of a combined one -- and
returns each event's counter index and prediction, without a
per-branch Python loop:

1. the counter index of every event is precomputed as one vectorized
   expression (trace outcomes are known in advance, so the global
   history register's value before each branch is a pure function of
   the preceding outcomes -- see :func:`_history_windows`);
2. the per-counter state evolution runs through the exact segmented
   scan of :mod:`repro.kernels.scan`;
3. the predictor's externally visible state -- counter table, history
   register, ``_PREDICT_STATE`` -- is written back so the predictor is
   indistinguishable from one trained by the reference loop.

``history_outcomes`` is for a history register that shifts more than
the replayed events (a combined predictor's static outcomes under a
:class:`~repro.arch.isa.ShiftPolicy`): a ``(stream, positions)`` pair
of the outcomes the register shifts, in order, and each replayed
event's position in that stream.  ``None`` means the register shifts
exactly the replayed events.

Callers go through :func:`repro.kernels.try_fast_simulate`, which
performs the type and limit checks; numpy is imported lazily so the
package stays importable (and the reference loop functional) without it.
"""

from __future__ import annotations

from repro.kernels.scan import index_dtype, scan_counters
from repro.utils.bits import ADDRESS_ALIGN_SHIFT, log2_exact

__all__ = [
    "MAX_COUNTER_BITS",
    "MAX_HISTORY_LENGTH",
    "MAX_TRACE_LENGTH",
    "replay_bimodal",
    "replay_ghist",
    "replay_gshare",
]

MAX_TRACE_LENGTH = 1 << 30
"""Scan adds and event positions are int32; both must stay far from
overflow."""

MAX_COUNTER_BITS = 16
"""Counter states must fit int32 alongside the cumulative deltas."""

MAX_HISTORY_LENGTH = 62
"""History windows are built in int64; bit length-1 must stay below 63."""


def _history_windows(outcomes, length, initial):
    """The history register's value *before* each branch, vectorized.

    Register semantics (:class:`~repro.predictors.history.GlobalHistory`):
    bit 0 is the most recent outcome, so before branch ``i`` the
    register holds ``outcome[i-k]`` at bit ``k-1`` for ``k <= length``,
    with bits beyond the start of the trace supplied by ``initial``
    (the warm-start register contents) shifted left ``i`` times.

    Short registers -- every configuration the paper simulates -- are
    built in int32 to halve the memory traffic of the ``length`` shift
    passes.
    """
    import numpy

    dtype = numpy.int32 if length <= 30 else numpy.int64
    n = outcomes.shape[0]
    windows = numpy.zeros(n, dtype=dtype)
    if length == 0 or n == 0:
        return windows
    bits = outcomes.view(numpy.int8).astype(dtype)
    for k in range(1, length + 1):
        if k >= n:
            break
        windows[k:] |= bits[:-k] << (k - 1)
    if initial:
        mask = (1 << length) - 1
        for i in range(min(length, n)):
            contribution = (initial << i) & mask
            if contribution == 0:
                break
            windows[i] |= contribution
    return windows


def _final_history(outcomes, length, initial):
    """The register value after shifting in every outcome of the trace."""
    if length == 0:
        return 0
    mask = (1 << length) - 1
    n = outcomes.shape[0]
    value = initial & mask
    for i in range(max(0, n - length), n):
        value = ((value << 1) | int(outcomes[i])) & mask
    return value


def _scan_table(predictor, indices, outcomes):
    """Scan the counter table over the events, write its state back.

    Returns the per-event prediction array.  ``indices`` must already
    be masked into the table; the caller advances any history register
    separately (its evolution does not depend on the table).
    """
    import numpy

    table = predictor.table
    base = table.export_array().astype(numpy.int32)
    predictions = scan_counters(
        indices, outcomes, base, table.max_value, table.threshold
    )
    table.import_array(base)
    n = indices.shape[0]
    if n:
        predictor._last_index = int(indices[n - 1])
    return predictions


def _pc_indices(predictor, addresses):
    """Masked address bits of each event, shifted straight into the
    narrow index dtype: the cast wraps, which keeps the low bits the
    mask selects, so no int64 copy of the addresses is made."""
    import numpy

    table = predictor.table
    indices = numpy.empty(addresses.shape[0], dtype=index_dtype(table.entries))
    numpy.right_shift(addresses, ADDRESS_ALIGN_SHIFT, out=indices,
                      casting="unsafe")
    indices &= table.mask
    return indices


def _history_indices(predictor, outcomes, history_outcomes):
    """Per-event history windows, folded into the table's index width.

    Reads the register's current value (the windows are a pure function
    of it plus the history stream), then advances the register past the
    whole stream.  Every returned window fits the index mask (an
    unfolded register is at most ``width`` bits; a folded one is masked
    here, matching the reference predictors' mask-after-fold), so
    gshare's XOR with masked address bits needs no re-mask.
    """
    history = predictor.history
    table = predictor.table
    stream, positions = (
        (outcomes, None) if history_outcomes is None else history_outcomes
    )
    windows = _history_windows(stream, history.length, history.value)
    history.import_value(_final_history(stream, history.length, history.value))
    if positions is not None:
        windows = windows[positions]
    width = log2_exact(table.entries)
    if history.length > width:
        windows ^= windows >> width
        windows &= table.mask
    return windows.astype(index_dtype(table.entries))


def replay_bimodal(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.bimodal.BimodalPredictor`
    (history-less, so ``history_outcomes`` is ignored)."""
    indices = _pc_indices(predictor, addresses)
    return indices, _scan_table(predictor, indices, outcomes)


def replay_gshare(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.gshare.GsharePredictor`."""
    indices = _history_indices(predictor, outcomes, history_outcomes)
    indices ^= _pc_indices(predictor, addresses)
    return indices, _scan_table(predictor, indices, outcomes)


def replay_ghist(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.ghist.GhistPredictor`."""
    indices = _history_indices(predictor, outcomes, history_outcomes)
    return indices, _scan_table(predictor, indices, outcomes)
