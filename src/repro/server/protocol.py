"""Wire protocol for the network tier.

Frames are length-prefixed JSON: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON encoding one object. Requests
carry ``{"id", "verb", "args"}``; responses carry ``{"id", "ok":
true, "result"}`` or ``{"id", "ok": false, "error": {"code",
"message"}}`` where ``code`` is the exception class name from
:mod:`repro.errors` (so the client re-raises the same type). An error
may carry structured ``data`` (e.g. ``retry_after_s`` on a shed
request); exception classes opt in with ``wire_data()`` /
``from_wire()``.

The codec is deliberately defensive: an oversized length prefix, a
zero-length frame, a body that is not valid UTF-8 JSON, or a payload
that is not a JSON object all raise
:class:`~repro.errors.ProtocolError` — the server answers with an
error frame and drops the connection rather than guessing.

Values cross the wire JSON-encoded with one extension: tuples (used
for composite keys and scan results) become ``{"__t__": [...]}``. The
key ``__t__`` is therefore reserved — a column may not use it.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional

from .. import errors as _errors
from ..core.schema import Column, ColumnType, Schema
from ..errors import ProtocolError, SchemaError, ServerError

__all__ = [
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "VERBS",
    "encode_frame", "FrameDecoder",
    "request", "ok_response", "error_response", "error_to_exception",
    "wire_value", "unwire_value", "schema_to_wire", "schema_from_wire",
]

#: Version spoken by this module; the ``hello`` handshake reports it.
#: Version 2 adds commit tokens, ``commit_status``, and structured
#: error data (load-shedding ``retry_after_s``).
PROTOCOL_VERSION = 2

#: Default upper bound on one frame body (1 MiB). Scan responses are
#: the largest legitimate frames; anything bigger is a corrupt prefix.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")

#: Every verb the server understands, in rough lifecycle order.
VERBS = (
    "hello", "ping",
    "open_session", "close_session",
    "create_table", "schema",
    "begin", "commit", "commit_status", "abort",
    "insert", "update", "delete", "get", "get_secondary", "scan",
    "call", "procedures",
    "flush", "checkpoint", "crash", "recover",
    "stats", "shutdown",
)

_TUPLE_TAG = "__t__"


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

#: ``json.dumps`` with non-default arguments builds an encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_scan_once = json.JSONDecoder().scan_once


def encode_frame(payload: Dict[str, Any], *,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one payload object into a length-prefixed frame."""
    body = _ENCODER.encode(payload).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit")
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    """A body the scanner does not consume whole goes to json.loads."""
    try:
        text = str(body, "utf-8")
        try:
            payload, end = _scan_once(text, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(text):
            payload = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") \
            from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, "
            f"got {type(payload).__name__}")
    return payload


class FrameDecoder:
    """Incremental frame decoder for byte streams, used by the client
    and the server alike.

    Feed arbitrary chunks; complete payloads come back in order.
    Directly testable against truncated, oversized, and garbage input.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every frame it completed. A corrupt
        frame raises :class:`ProtocolError` — but after the frames in
        front of it: those return, and the next ``feed``/``eof`` raises."""
        if self._buffer:
            self._buffer += data
            data, self._buffer = self._buffer, bytearray()
        payloads, offset = [], 0
        try:
            while len(data) - offset >= _HEADER.size:
                (length,) = _HEADER.unpack_from(data, offset)
                if not 0 < length <= self._max_frame_bytes:
                    raise ProtocolError(
                        f"frame length {length} exceeds the "
                        f"{self._max_frame_bytes}-byte frame limit"
                        if length else "zero-length frame")
                end = offset + _HEADER.size + length
                if end > len(data):
                    break
                payloads.append(_decode_body(data[end - length:end]))
                offset = end
        except ProtocolError:
            if not payloads:
                raise
        finally:
            if offset < len(data):
                self._buffer = bytearray(data[offset:])
        return payloads

    def eof(self) -> None:
        """Signal end of stream; raises if a partial frame is buffered."""
        self.feed(b"")
        if self._buffer:
            raise ProtocolError(
                f"stream ended mid-frame with {len(self._buffer)} "
                "bytes buffered (truncated frame)")


# ----------------------------------------------------------------------
# Requests / responses
# ----------------------------------------------------------------------

def request(request_id: int, verb: str,
            **args: Any) -> Dict[str, Any]:
    return {"id": request_id, "verb": verb, "args": args}


def ok_response(request_id: Optional[int],
                result: Any = None) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Optional[int],
                   exc: BaseException) -> Dict[str, Any]:
    """Structured error frame; ``code`` is the exception class name.
    Exceptions exposing ``wire_data()`` ship that dict as ``data``
    (rebuilt client-side by the class's ``from_wire``)."""
    error: Dict[str, Any] = {"code": type(exc).__name__,
                             "message": str(exc)}
    wire_data = getattr(exc, "wire_data", None)
    if callable(wire_data):
        data = wire_data()
        if data:
            error["data"] = data
    return {"id": request_id, "ok": False, "error": error}


#: Exception classes a ``code`` may name (everything in repro.errors).
_ERROR_TYPES: Dict[str, type] = {
    name: obj for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
}


def error_to_exception(error: Dict[str, Any]) -> Exception:
    """Rebuild the server-side exception from an error frame. Unknown
    codes degrade to :class:`~repro.errors.ServerError`."""
    if not isinstance(error, dict):
        return ServerError(f"malformed error frame: {error!r}")
    cls = _ERROR_TYPES.get(error.get("code", ""), ServerError)
    message = str(error.get("message", ""))
    from_wire = getattr(cls, "from_wire", None)
    if callable(from_wire):
        data = error.get("data")
        return from_wire(message, data if isinstance(data, dict)
                         else {})
    return cls(message)


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------

def wire_value(value: Any) -> Any:
    """JSON-encodable form of a key/row/result value."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [wire_value(item) for item in value]}
    if isinstance(value, list):
        return [wire_value(item) for item in value]
    if isinstance(value, dict):
        return {name: wire_value(item) for name, item in value.items()}
    return value


def unwire_value(value: Any) -> Any:
    """Inverse of :func:`wire_value`."""
    if isinstance(value, dict):
        if len(value) == 1 and _TUPLE_TAG in value:
            return tuple(unwire_value(item) for item in value[_TUPLE_TAG])
        return {name: unwire_value(item) for name, item in value.items()}
    if isinstance(value, list):
        return [unwire_value(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Schema codec
# ----------------------------------------------------------------------

def schema_to_wire(schema: Schema) -> Dict[str, Any]:
    return {
        "table": schema.table,
        "columns": [{"name": column.name, "type": column.type.value,
                     "capacity": column.capacity}
                    for column in schema.columns],
        "primary_key": list(schema.primary_key),
        "secondary_indexes": {name: list(columns)
                              for name, columns
                              in schema.secondary_indexes.items()},
    }


def schema_from_wire(obj: Dict[str, Any]) -> Schema:
    """Rebuild a :class:`Schema`; malformed input raises
    :class:`~repro.errors.ProtocolError`."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"schema must be an object, got {obj!r}")
    try:
        columns = [Column(spec["name"], ColumnType(spec["type"]),
                          spec.get("capacity", 8))
                   for spec in obj["columns"]]
        return Schema.build(obj["table"], columns, obj["primary_key"],
                            obj.get("secondary_indexes") or {})
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed schema on the wire: {exc!r}") \
            from None
