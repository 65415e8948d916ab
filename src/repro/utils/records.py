"""JSON round-trips for flat result records.

A *flat record* is a dataclass whose fields are all JSON scalars (ints,
floats, strings, bools).  The runner's result store persists several
of them -- trace summaries, drift reports, pipeline runs -- and they all
serialize the same way: one JSON object keyed by field name.  Python's
``json`` writes floats with ``repr``, so a float survives the round trip
bit for bit.
"""

from __future__ import annotations

from dataclasses import fields

from repro.errors import ReproError

__all__ = ["record_to_dict", "record_from_dict"]


def record_to_dict(record) -> dict:
    """``{field: value}`` for every field of a flat record."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def record_from_dict(cls, data: dict):
    """Rebuild a flat record from :func:`record_to_dict` output.

    Raises :class:`~repro.errors.ReproError` on a malformed payload, so a
    damaged cache entry reads as a miss rather than a ``KeyError``.
    """
    try:
        return cls(**{f.name: data[f.name] for f in fields(cls)})
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed {cls.__name__} payload: {exc}") from exc
