"""Whole-trace replay kernels for the dynamic predictors.

Each family has exactly one kernel, with one contract::

    replay(predictor, addresses, outcomes, history_outcomes=None)
        -> (indices, predictions)

It replays a stream of counter-table events -- every branch of a plain
run, the dynamically predicted branches of a combined one -- and
returns each event's counter index and prediction:

1. the counter index of every event is precomputed as one vectorized
   expression (trace outcomes are known in advance, so the global
   history register's value before each branch is a pure function of
   the preceding outcomes -- see :func:`_history_windows`);
2. the per-counter state evolution runs through the exact segmented
   scan of :mod:`repro.kernels.scan` (single-table families), or
   through one tight counter loop over the precomputed index streams
   (the coupled families, below);
3. the predictor's externally visible state -- counter tables, history
   register, ``_PREDICT_STATE`` -- is written back so the predictor is
   indistinguishable from one trained by the reference loop.

Bi-mode and 2bcgskew couple their banks through partial update: which
counters train depends on the overall prediction, so no per-counter
scan applies.  Their indices are still pure functions of addresses and
outcomes, so phase 1 computes them with whole-array passes, and phase 2
is a Python loop doing only the counter reads and the partial updates,
over one list holding every bank back to back.  Their ``indices`` is a
``(tables, events)`` array of *table-offset* counter ids, one row per
``accessed()`` entry: a counter's id is its index plus the entries of
the banks before it, so ids never coincide across banks.

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
from repro.predictors.indexing import skew_tables
from repro.utils.bits import ADDRESS_ALIGN_SHIFT, bit_mask, log2_exact

__all__ = [
    "MAX_COUNTER_BITS",
    "MAX_HISTORY_LENGTH",
    "MAX_TRACE_LENGTH",
    "replay_2bcgskew",
    "replay_bimodal",
    "replay_bimode",
    "replay_ghist",
    "replay_gshare",
]

MAX_TRACE_LENGTH = 1 << 30
"""Scan adds and event positions are int32; both must stay far from
overflow.  The bound is on counter lookups, i.e. branches times the
tables each lookup reads."""

MAX_COUNTER_BITS = 16
"""The segmented scan's counter states must fit int32 alongside the
cumulative deltas.  The coupled families' loop steps Python ints, so
only single-table (``predictor.table``) families are bounded."""

MAX_HISTORY_LENGTH = 62
"""History windows are built in int64; bit length-1 must stay below 63."""

_SLICE = 4096
"""Events per slice of the coupled families' counter loop.  Index
columns become Python ints one slice at a time: whole-trace lists would
cost ~40 bytes (a list slot and an int object) per event per column."""


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


def _pc_indices(addresses, entries):
    """Masked address bits of each event, shifted straight into the
    narrow index dtype: the cast wraps, which keeps the low bits the
    mask selects, so no int64 copy of the addresses is made."""
    import numpy

    indices = numpy.empty(addresses.shape[0], dtype=index_dtype(entries))
    numpy.right_shift(addresses, ADDRESS_ALIGN_SHIFT, out=indices,
                      casting="unsafe")
    indices &= entries - 1
    return indices


def _event_history(history, outcomes, history_outcomes):
    """The register's value before each replayed event.

    Reads the register's current value (the windows are a pure function
    of it plus the history stream), then advances the register past the
    whole stream.
    """
    stream, positions = (
        (outcomes, None) if history_outcomes is None else history_outcomes
    )
    windows = _history_windows(stream, history.length, history.value)
    history.import_value(_final_history(stream, history.length, history.value))
    return windows if positions is None else windows[positions]


def _history_indices(history, entries, outcomes, history_outcomes):
    """Per-event history windows, folded into a table's index width.

    Every returned window fits the index mask (an unfolded register is
    at most ``width`` bits; a folded one is masked here, matching the
    reference predictors' mask-after-fold), so gshare's XOR with masked
    address bits needs no re-mask.  A register wider than 30 bits is
    folded before it is narrowed.
    """
    windows = _event_history(history, outcomes, history_outcomes)
    width = log2_exact(entries)
    if history.length > width:
        windows ^= windows >> width
        windows &= entries - 1
    return windows.astype(index_dtype(entries))


def _slices(n, *columns):
    """``(start, stop, lists)`` per :data:`_SLICE` events: each column's
    values over ``[start, stop)`` as Python ints."""
    for start in range(0, n, _SLICE):
        stop = min(start + _SLICE, n)
        yield start, stop, [column[start:stop].tolist() for column in columns]


def _joined(tables):
    """Every table's counters in one list, back to back, so one
    table-offset id addresses any counter of a multi-bank predictor."""
    return [value for table in tables for value in table.values]


def _write_back(counters, tables):
    """Inverse of :func:`_joined`: each table adopts its slice through
    the range-checked :meth:`~repro.predictors.counters.CounterTable.import_array`."""
    offset = 0
    for table in tables:
        table.import_array(counters[offset:offset + table.entries])
        offset += table.entries


def _saturating_steps(table):
    """``(down, up)``: each counter state's successor after a not-taken
    and after a taken outcome, as lists indexed by state."""
    top = table.max_value
    return [0, *range(top)], [*range(1, top + 1), top]


def replay_bimodal(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.bimodal.BimodalPredictor`
    (history-less, so ``history_outcomes`` is ignored)."""
    indices = _pc_indices(addresses, predictor.table.entries)
    return indices, _scan_table(predictor, indices, outcomes)


def replay_gshare(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.gshare.GsharePredictor`."""
    entries = predictor.table.entries
    indices = _history_indices(predictor.history, entries, outcomes,
                               history_outcomes)
    indices ^= _pc_indices(addresses, entries)
    return indices, _scan_table(predictor, indices, outcomes)


def replay_ghist(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.ghist.GhistPredictor`."""
    indices = _history_indices(predictor.history, predictor.table.entries,
                               outcomes, history_outcomes)
    return indices, _scan_table(predictor, indices, outcomes)


def replay_bimode(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.bimode.BiModePredictor`.

    Counter ids: the not-taken bank at ``[0, E)``, the taken bank at
    ``[E, 2E)``, the choice table from ``2E``.  Phase 1 fills row 0
    with bank-0 gshare ids and row 1 with choice ids; the loop adds
    ``E`` to row 0 wherever the choice selected the taken bank.
    """
    import numpy

    tables = (*predictor.direction_banks, predictor.choice)
    choice = predictor.choice
    entries = tables[0].entries
    n = addresses.shape[0]
    # The XOR runs in the bank's index dtype: the ids' wider dtype can
    # be uint16 where the bank's is int16, and numpy will not cast an
    # in-place mixed-sign result back.
    direction = _history_indices(predictor.history, entries, outcomes,
                                 history_outcomes)
    direction ^= _pc_indices(addresses, entries)
    ids = numpy.empty((2, n), dtype=index_dtype(2 * entries + choice.entries))
    ids[0] = direction
    del direction
    ids[1] = _pc_indices(addresses, choice.entries)
    ids[1] += 2 * entries

    counters = _joined(tables)
    threshold = choice.threshold
    down, up = _saturating_steps(choice)
    predictions = numpy.empty(n, dtype=numpy.bool_)
    for start, stop, columns in _slices(n, ids[0], ids[1], outcomes):
        selected = []
        predicted = []
        # repro: allow[PERF001] -- partial update makes the counter
        # arithmetic sequential (phase 1 vectorized every index); the
        # 4096-event slices bound the lists' memory
        for direction, chooser, taken in zip(*columns):
            choice_state = counters[chooser]
            choice_taken = choice_state >= threshold
            if choice_taken:
                direction += entries
            state = counters[direction]
            prediction = state >= threshold
            step = up if taken else down
            counters[direction] = step[state]
            # The choice keeps its state only when it disagreed with
            # the outcome while the selected bank was right.
            if choice_taken == taken or prediction != taken:
                counters[chooser] = step[choice_state]
            selected.append(direction)
            predicted.append(prediction)
        ids[0, start:stop] = selected
        predictions[start:stop] = predicted

    _write_back(counters, tables)
    if n:
        direction = int(ids[0, n - 1])
        predictor._last_bank = 1 if direction >= entries else 0
        predictor._last_choice_taken = direction >= entries
        predictor._last_direction_index = direction & (entries - 1)
        predictor._last_choice_index = int(ids[1, n - 1]) - 2 * entries
        predictor._last_direction_pred = bool(predictions[n - 1])
    return ids, predictions


def replay_2bcgskew(predictor, addresses, outcomes, history_outcomes=None):
    """Replay for :class:`~repro.predictors.gskew.TwoBcGskewPredictor`.

    Counter ids: BIM at ``[0, E)``, G0 from ``E``, G1 from ``2E`` and
    META from ``3E``, with every bank's index -- including the
    ``H``/``H^-1`` skews -- gathered in phase 1.
    """
    import numpy

    banks = predictor.banks
    entries = banks[0].entries
    width = log2_exact(entries)
    mask = entries - 1
    n = addresses.shape[0]
    skew = skew_tables(width)
    h = numpy.array(skew.h, dtype=numpy.int32)
    h_inv = numpy.array(skew.h_inv, dtype=numpy.int32)
    pc = addresses >> ADDRESS_ALIGN_SHIFT
    c1 = (pc & mask).astype(numpy.int32)
    c2 = ((pc >> width) & mask).astype(numpy.int32)
    del pc
    # Every bank history is at most ``width`` bits, so every term below
    # is already under ``entries`` (META's PC XOR needs only c1).
    windows = _event_history(predictor.history, outcomes, history_outcomes)
    ids = numpy.empty((4, n), dtype=index_dtype(4 * entries))
    ids[0] = c1
    ids[1] = h[c1] ^ h_inv[c2] ^ (windows & bit_mask(predictor.g0_history))
    ids[1] += entries
    ids[2] = h_inv[c1] ^ c2 ^ h[windows & bit_mask(predictor.g1_history)]
    ids[2] += 2 * entries
    ids[3] = c1 ^ (windows & bit_mask(predictor.meta_history))
    ids[3] += 3 * entries
    del c1, c2, windows

    counters = _joined(banks)
    threshold = banks[0].threshold
    down, up = _saturating_steps(banks[0])
    predictions = numpy.empty(n, dtype=numpy.bool_)
    for start, stop, columns in _slices(n, *ids, outcomes):
        predicted = []
        # repro: allow[PERF001] -- partial update makes the counter
        # arithmetic sequential (phase 1 vectorized every index); the
        # 4096-event slices bound the lists' memory
        for bim_id, g0_id, g1_id, meta_id, taken in zip(*columns):
            bim_state = counters[bim_id]
            g0_state = counters[g0_id]
            g1_state = counters[g1_id]
            meta_state = counters[meta_id]
            bim = bim_state >= threshold
            g0 = g0_state >= threshold
            g1 = g1_state >= threshold
            gskew = bim + g0 + g1 >= 2
            chose_gskew = meta_state >= threshold
            prediction = gskew if chose_gskew else bim
            step = up if taken else down
            if prediction != taken:
                # Bad overall prediction: all three c-gskew banks train.
                counters[bim_id] = step[bim_state]
                counters[g0_id] = step[g0_state]
                counters[g1_id] = step[g1_state]
            elif chose_gskew:
                # Correct by the vote: only the agreeing banks train.
                if bim == taken:
                    counters[bim_id] = step[bim_state]
                if g0 == taken:
                    counters[g0_id] = step[g0_state]
                if g1 == taken:
                    counters[g1_id] = step[g1_state]
            else:
                counters[bim_id] = step[bim_state]
            if bim != gskew:
                # META trains toward whichever component was right.
                counters[meta_id] = (up if gskew == taken else down)[meta_state]
            predicted.append(prediction)
        predictions[start:stop] = predicted

    _write_back(counters, banks)
    if n:
        # The loop's last iteration holds the final event's lookup.
        predictor._idx[:] = [int(ids[row, n - 1]) - row * entries
                             for row in range(4)]
        predictor._bim_pred = bim
        predictor._g0_pred = g0
        predictor._g1_pred = g1
        predictor._gskew_pred = gskew
        predictor._meta_choice_gskew = chose_gskew
    return ids, predictions
