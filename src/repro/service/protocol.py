"""The service wire protocol: versioned newline-delimited JSON.

One message per line, UTF-8 JSON, ``\\n``-terminated.  Every request
carries ``{"v": PROTOCOL_VERSION, "type": <request type>, ...}`` and an
optional client ``tag`` (an opaque string the server echoes verbatim in
the matching response, which is what lets a client pipeline several
in-flight requests over one connection).  Responses carry ``type`` and
the echoed ``tag``; the protocol version is negotiated only one way --
a request with the wrong ``v`` is rejected with an ``error`` response
naming the server's version, so old clients fail loudly instead of
misparsing.

Request types
-------------

``submit``
    One experiment cell (``cell``: see :func:`cell_to_wire`).  With
    ``wait`` true (the default) the response is the cell's ``result``;
    with ``wait`` false an ``accepted`` response carries a server
    ``request_id`` for later ``status``/``result`` polls.  A full queue
    produces ``rejected`` with ``retry_after`` seconds.
``status`` / ``result``
    Poll a previously accepted ``request_id``.
``stream``
    A list of cells; the server responds with one ``result`` message
    per cell *in completion order* (each tagged with the cell's index
    as ``index``), then ``stream-end``.
``health``
    Liveness probe; the response carries the protocol version and the
    server's registered program/predictor counts.
``stats``
    Service counters (requests, batches, cache hits, rejections) plus
    the executor's run summary and store counters.
``shutdown``
    Graceful drain: in-flight batches complete, queued requests are
    served, new connections are refused, then the process exits.

The cell representation on the wire is pure data (strings, ints,
floats, bools) validated against the same registries the CLI uses --
an unknown program or predictor is a :class:`ProtocolError` at decode
time, *before* anything reaches the scheduler.
"""

from __future__ import annotations

import json

from repro.arch.isa import ShiftPolicy
from repro.errors import ServiceError
from repro.predictors.sizing import PREDICTOR_NAMES
from repro.runner.cells import SIMULATE, STABLE_SCHEME, Cell
from repro.staticpred.selection import SELECTION_SCHEMES
from repro.workloads.spec95 import PROGRAM_ORDER

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "ProtocolError",
    "encode",
    "decode",
    "request",
    "response",
    "cell_to_wire",
    "cell_from_wire",
]

PROTOCOL_VERSION = 1
"""Bumped on any incompatible message-shape change; requests carrying a
different ``v`` are answered with an ``error`` naming this value."""

MAX_LINE_BYTES = 1 << 20
"""Upper bound on one encoded message; longer lines are a protocol
error (and protect the server from unbounded buffering)."""

REQUEST_TYPES = (
    "submit", "status", "result", "stream", "health", "stats", "shutdown",
)

RESPONSE_TYPES = (
    "accepted", "rejected", "status", "result", "error",
    "health", "stats", "stream-end", "ok",
)

_WIRE_SCHEMES = SELECTION_SCHEMES + (STABLE_SCHEME,)
_SHIFT_POLICIES = {policy.value: policy for policy in ShiftPolicy}
_INPUTS = ("train", "ref")
_SCALARS = (int, float, str, bool)


class ProtocolError(ServiceError):
    """A message failed to parse or validate against the protocol."""


def encode(message: dict) -> bytes:
    """One message as a complete wire line (JSON + newline).

    ``json.dumps`` never emits raw newlines, so the line framing cannot
    be broken by payload content; non-serializable payloads are caller
    bugs surfaced as :class:`ProtocolError`.
    """
    try:
        text = json.dumps(message, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message: {exc}") from exc
    line = text.encode("utf-8") + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"encoded message is {len(line)} bytes; the protocol caps "
            f"lines at {MAX_LINE_BYTES}"
        )
    return line


def decode(line: bytes | str, *, kinds: tuple[str, ...] | None = None) -> dict:
    """Parse and shape-check one wire line.

    ``kinds`` restricts the accepted ``type`` values (the server passes
    :data:`REQUEST_TYPES`, clients :data:`RESPONSE_TYPES`); requests
    additionally carry a matching protocol version.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"message line is {len(line)} bytes; the protocol caps "
                f"lines at {MAX_LINE_BYTES}"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("message carries no string 'type' field")
    if kinds is not None and kind not in kinds:
        raise ProtocolError(
            f"unknown message type {kind!r}; expected one of "
            f"{', '.join(kinds)}"
        )
    if kinds is REQUEST_TYPES:
        version = message.get("v")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: request carries v={version!r}, "
                f"this server speaks v={PROTOCOL_VERSION}"
            )
    tag = message.get("tag")
    if tag is not None and not isinstance(tag, str):
        raise ProtocolError("'tag' must be a string when present")
    return message


def request(kind: str, **fields) -> dict:
    """Build a request message (adds the protocol version)."""
    if kind not in REQUEST_TYPES:
        raise ProtocolError(f"unknown request type {kind!r}")
    return {"v": PROTOCOL_VERSION, "type": kind, **fields}


def response(kind: str, tag: str | None = None, **fields) -> dict:
    """Build a response message (echoing the request's ``tag``)."""
    if kind not in RESPONSE_TYPES:
        raise ProtocolError(f"unknown response type {kind!r}")
    message = {"type": kind, **fields}
    if tag is not None:
        message["tag"] = tag
    return message


# -- cell (de)serialization ------------------------------------------------

def cell_to_wire(cell: Cell) -> dict:
    """A cell as pure wire data (the inverse of :func:`cell_from_wire`)."""
    payload = {
        "program": cell.program,
        "predictor": cell.predictor,
        "size_bytes": cell.size_bytes,
        "scheme": cell.scheme,
        "shift_policy": cell.shift_policy.value,
        "measure_input": cell.measure_input,
        "profile_input": cell.profile_input,
        "cutoff": cell.cutoff,
        "factor": cell.factor,
        "track_collisions": cell.track_collisions,
    }
    if cell.predictor_kwargs:
        payload["predictor_kwargs"] = dict(cell.predictor_kwargs)
    if cell.kind != SIMULATE:
        payload["kind"] = cell.kind
    return payload


def _require(payload: dict, key: str, allowed: tuple, default=None):
    value = payload.get(key, default)
    if value not in allowed:
        raise ProtocolError(
            f"cell field {key!r} must be one of {', '.join(map(str, allowed))}; "
            f"got {value!r}"
        )
    return value


def cell_from_wire(payload: dict) -> Cell:
    """Validate wire data into a :class:`~repro.runner.cells.Cell`.

    Validation happens here, at the protocol boundary, so a malformed
    submission is a clean ``error`` response instead of a worker-side
    exception half way through a batch.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"cell must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - {
        "program", "predictor", "size_bytes", "scheme", "shift_policy",
        "measure_input", "profile_input", "cutoff", "factor",
        "track_collisions", "predictor_kwargs", "kind",
    })
    if unknown:
        raise ProtocolError(f"unknown cell field(s): {', '.join(unknown)}")
    # The service measures predictors; profiling kinds are report inputs
    # that ``repro run`` computes, not something a client submits.
    _require(payload, "kind", (SIMULATE,), default=SIMULATE)

    program = _require(payload, "program", PROGRAM_ORDER)
    predictor = _require(payload, "predictor", PREDICTOR_NAMES)
    scheme = _require(payload, "scheme", _WIRE_SCHEMES, default="none")
    shift_value = _require(payload, "shift_policy",
                           tuple(sorted(_SHIFT_POLICIES)),
                           default=ShiftPolicy.NO_SHIFT.value)
    measure_input = _require(payload, "measure_input", _INPUTS, default="ref")
    profile_input = _require(payload, "profile_input", _INPUTS, default="ref")

    size_bytes = payload.get("size_bytes")
    if not isinstance(size_bytes, int) or isinstance(size_bytes, bool) \
            or size_bytes <= 0:
        raise ProtocolError(
            f"cell field 'size_bytes' must be a positive integer, got "
            f"{size_bytes!r}"
        )
    cutoff = payload.get("cutoff", 0.95)
    factor = payload.get("factor", 1.05)
    for name, value in (("cutoff", cutoff), ("factor", factor)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(
                f"cell field {name!r} must be a number, got {value!r}"
            )
    track = payload.get("track_collisions", False)
    if not isinstance(track, bool):
        raise ProtocolError(
            f"cell field 'track_collisions' must be a boolean, got {track!r}"
        )
    kwargs = payload.get("predictor_kwargs") or {}
    if not isinstance(kwargs, dict):
        raise ProtocolError("cell field 'predictor_kwargs' must be an object")
    for key, value in sorted(kwargs.items()):
        if not isinstance(key, str) or not isinstance(value, _SCALARS):
            raise ProtocolError(
                f"predictor_kwargs entries must map strings to scalars; "
                f"got {key!r}={value!r}"
            )
    return Cell.make(
        program, predictor, size_bytes,
        predictor_kwargs=kwargs or None,
        scheme=scheme,
        shift_policy=_SHIFT_POLICIES[shift_value],
        measure_input=measure_input,
        profile_input=profile_input,
        cutoff=float(cutoff),
        factor=float(factor),
        track_collisions=track,
    )
