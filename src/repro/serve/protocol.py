"""Wire protocol of the dispatch service: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one message object.  The framing is
deliberately minimal — any language can speak it with a socket and a
JSON library — and symmetric: requests and responses use the same
encoding.

Requests are objects with an ``op`` field:

``{"op": "ping"}``
    liveness probe; answered with ``{"ok": true, "op": "pong", "now": t}``
    where ``t`` is the service's current *virtual* time.
``{"op": "submit", "tid": i, "release": r, "proc": p,
  "machine_set": [..] | null, "key": k | null, "dedupe": d | null}``
    one request of the online stream (the wire form of
    :class:`repro.core.task.Task`); answered immediately with the
    dispatch decision — the service never blocks a submit on service
    completion.  ``dedupe`` (optional) is an idempotency key: a repeat
    submit carrying a key the service has already decided is answered
    with the *original* decision and dispatches nothing, so a client
    retrying over a lossy link can never double-dispatch.
``{"op": "stats"}``
    answered with the live metrics snapshot and service counters.
``{"op": "drain"}``
    blocks until every dispatched request has finished service.
``{"op": "shutdown"}``
    acknowledges, then stops the server.

Every response carries ``"ok"`` (``false`` plus an ``"error"`` string
when the request could not be handled — a malformed task, an
out-of-order release — so one bad request never tears down the
connection).

Versioning: a message may carry a ``"v"`` field naming the protocol
version it speaks.  Frames without ``"v"`` are treated as the current
version (the pre-versioning wire form stays valid); frames carrying a
*different* version are answered with an error response that names
both versions, so a router and a shard built from different revisions
detect the skew on the first frame instead of mis-parsing each other
(:func:`check_version`, :func:`versioned`).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from ..core.task import Task

__all__ = [
    "FrameTooLargeError",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "check_version",
    "decode_frame",
    "encode_frame",
    "parse_length",
    "read_frame",
    "validate_length",
    "task_from_wire",
    "task_to_wire",
    "version_error",
    "versioned",
    "write_frame",
]

PROTOCOL_VERSION = 1

#: Frames above this size are rejected — a corrupted length prefix must
#: not make the reader allocate gigabytes.
MAX_FRAME = 1 << 20

_HEADER = struct.Struct(">I")

#: One compact encoder per process: ``json.dumps`` with non-default
#: ``separators`` would build a fresh ``JSONEncoder`` on every frame.
_compact = json.JSONEncoder(separators=(",", ":"))

#: Interned machine sets of decoded submits, keyed by the wire list as
#: a tuple: a stream has few distinct sets, so every task with the same
#: list shares one frozenset.  Clients pick the keys, so the cache is
#: cleared whenever it holds :data:`_INTERN_IDS` machine ids in total.
_interned: dict[tuple, frozenset[int]] = {}
_INTERN_IDS = 1 << 16
_interned_ids = 0


class ProtocolError(ValueError):
    """Raised on malformed frames or messages."""


class FrameTooLargeError(ProtocolError):
    """A declared (or encoded) frame length exceeds :data:`MAX_FRAME`.

    Typed separately from the generic :class:`ProtocolError` so callers
    can distinguish an adversarial/corrupt length prefix — which must
    never turn into an unbounded read — from ordinary framing damage."""


def parse_length(header: bytes) -> int:
    """Validate a length prefix and return the frame body length.

    The wire prefix is a 4-byte big-endian unsigned int, but this
    accepts any ``bytes`` of the right size and enforces the full
    contract: a short/long header, a non-integer or negative length
    (possible if a future transport hands lengths around out-of-band)
    is a :class:`ProtocolError`; a length beyond :data:`MAX_FRAME` is a
    :class:`FrameTooLargeError` — the reader must refuse to allocate,
    not attempt the read.
    """
    if len(header) != _HEADER.size:
        raise ProtocolError(f"frame header must be {_HEADER.size} bytes, got {len(header)}")
    (length,) = _HEADER.unpack(header)
    return validate_length(length)


def validate_length(length: object) -> int:
    """The length-prefix contract on an already-decoded value."""
    if isinstance(length, bool) or not isinstance(length, int):
        raise ProtocolError(f"frame length must be an int, got {type(length).__name__}")
    if length < 0:
        raise ProtocolError(f"frame length must be >= 0, got {length}")
    if length > MAX_FRAME:
        raise FrameTooLargeError(f"declared frame length {length} exceeds MAX_FRAME={MAX_FRAME}")
    return length


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialise ``message`` to one wire frame (header + JSON body)."""
    body = _compact.encode(message).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameTooLargeError(f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> dict[str, Any]:
    """Parse a frame body (the bytes after the length prefix)."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-header") from exc
    length = parse_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_frame(body)


async def write_frame(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Encode and send one frame, waiting for the transport to drain."""
    writer.write(encode_frame(message))
    await writer.drain()


def versioned(message: dict[str, Any]) -> dict[str, Any]:
    """Copy of ``message`` stamped with the current protocol version."""
    return {"v": PROTOCOL_VERSION, **message}


def check_version(message: dict[str, Any]) -> str | None:
    """Version-mismatch complaint for ``message``, or ``None`` if it is
    speakable.  Messages without a ``"v"`` field pass (implicit current
    version); any other value than :data:`PROTOCOL_VERSION` fails."""
    v = message.get("v")
    if v is None or v == PROTOCOL_VERSION:
        return None
    return f"protocol version mismatch: peer speaks v{v!r}, this end speaks v{PROTOCOL_VERSION}"


def version_error(message: dict[str, Any], complaint: str) -> dict[str, Any]:
    """The error response for a version-mismatched request — carries
    this end's version so the peer can log both sides of the skew."""
    return {
        "ok": False,
        "op": message.get("op"),
        "v": PROTOCOL_VERSION,
        "error": complaint,
    }


def task_to_wire(task: Task) -> dict[str, Any]:
    """The ``submit`` payload for ``task`` (sans the ``op`` field)."""
    return {
        "tid": task.tid,
        "release": task.release,
        "proc": task.proc,
        "machine_set": None if task.machines is None else sorted(task.machines),
        "key": task.key,
    }


def task_from_wire(message: dict[str, Any]) -> Task:
    """Build the :class:`Task` of a ``submit`` message.

    Raises :class:`ProtocolError` on missing or ill-typed fields (the
    :class:`Task` validators catch the value errors: negative or
    non-finite release — json carries ``NaN``/``Infinity`` — and
    non-positive or non-finite proc, empty or out-of-range machine
    sets).
    """
    try:
        tid = int(message["tid"])
        release = float(message["release"])
        proc = float(message["proc"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed submit message: {exc}") from exc
    machine_set = message.get("machine_set")
    if machine_set is not None:
        try:
            machine_set = _intern(machine_set)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed machine_set: {exc}") from exc
    key = message.get("key")
    try:
        return Task(
            tid=tid,
            release=release,
            proc=proc,
            machines=machine_set,
            key=None if key is None else int(key),
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def _intern(raw: Any) -> frozenset[int]:
    """The shared frozenset of the wire machine list ``raw``."""
    global _interned_ids
    key = tuple(raw)
    machines = _interned.get(key)
    if machines is None:
        machines = frozenset(int(j) for j in key)
        if _interned_ids + len(key) > _INTERN_IDS:
            _interned.clear()
            _interned_ids = 0
        _interned[key] = machines
        _interned_ids += len(key)
    return machines
