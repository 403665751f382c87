"""Frame codec and wire-value round trips, including hostile input:
oversized, truncated, and garbage frames must raise ProtocolError, not
crash or desynchronize the stream."""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.schema import Column, ColumnType, Schema
from repro.errors import (ProtocolError, ServerError, SessionStateError,
                          TupleNotFoundError)
from repro.server.protocol import (FrameDecoder, encode_frame,
                                   error_response, error_to_exception,
                                   ok_response, request, schema_from_wire,
                                   schema_to_wire, unwire_value,
                                   wire_value)


# ----------------------------------------------------------------------
# encode_frame / FrameDecoder round trips
# ----------------------------------------------------------------------

def test_encode_decode_round_trip():
    payload = {"id": 7, "verb": "get", "args": {"table": "kv", "key": 3}}
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(payload)) == [payload]
    assert decoder.buffered_bytes == 0


def test_decoder_handles_many_frames_in_one_chunk():
    payloads = [{"id": i, "verb": "ping", "args": {}} for i in range(5)]
    blob = b"".join(encode_frame(p) for p in payloads)
    assert FrameDecoder().feed(blob) == payloads


def test_decoder_reassembles_byte_at_a_time():
    payload = {"id": 1, "ok": True, "result": {"rows": list(range(50))}}
    blob = encode_frame(payload)
    decoder = FrameDecoder()
    out = []
    for i in range(len(blob)):
        out.extend(decoder.feed(blob[i:i + 1]))
    assert out == [payload]
    decoder.eof()               # clean boundary: no partial frame


def test_decoder_split_across_header_boundary():
    payload = {"id": 2, "verb": "hello", "args": {}}
    blob = encode_frame(payload)
    decoder = FrameDecoder()
    assert decoder.feed(blob[:2]) == []          # half a header
    assert decoder.feed(blob[2:6]) == []         # header + 2 body bytes
    assert decoder.feed(blob[6:]) == [payload]


def test_zero_length_frame_rejected():
    with pytest.raises(ProtocolError, match="zero-length"):
        FrameDecoder().feed(struct.pack(">I", 0))


def test_oversized_length_prefix_rejected():
    decoder = FrameDecoder(max_frame_bytes=1024)
    with pytest.raises(ProtocolError, match="exceeds"):
        decoder.feed(struct.pack(">I", 1025))


def test_oversized_body_rejected_on_encode():
    payload = {"blob": "x" * 2048}
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(payload, max_frame_bytes=1024)


def test_garbage_body_rejected():
    body = b"\xff\xfenot json at all"
    with pytest.raises(ProtocolError, match="not valid JSON"):
        FrameDecoder().feed(struct.pack(">I", len(body)) + body)


def test_non_object_payload_rejected():
    body = json.dumps([1, 2, 3]).encode()
    with pytest.raises(ProtocolError, match="JSON object"):
        FrameDecoder().feed(struct.pack(">I", len(body)) + body)


def test_truncated_stream_rejected_at_eof():
    blob = encode_frame({"id": 1, "verb": "ping", "args": {}})
    decoder = FrameDecoder()
    decoder.feed(blob[:-3])
    assert decoder.buffered_bytes == len(blob) - 3
    with pytest.raises(ProtocolError, match="truncated"):
        decoder.eof()


def test_truncated_length_prefix_rejected_at_eof():
    """A stream that dies inside the 4-byte header is still a
    truncated frame, not a clean close."""
    decoder = FrameDecoder()
    assert decoder.feed(struct.pack(">I", 8)[:2]) == []
    with pytest.raises(ProtocolError, match="truncated"):
        decoder.eof()


def test_frame_exactly_at_limit_accepted():
    """The size limit is inclusive: a body of exactly
    ``max_frame_bytes`` decodes."""
    body = b'{"pad":"' + b"x" * (1024 - 10) + b'"}'
    assert len(body) == 1024
    decoder = FrameDecoder(max_frame_bytes=1024)
    (payload,) = decoder.feed(struct.pack(">I", len(body)) + body)
    assert payload == {"pad": "x" * (1024 - 10)}
    decoder.eof()


def test_frame_one_byte_over_limit_rejected():
    body = b'{"pad":"' + b"x" * (1024 - 9) + b'"}'
    assert len(body) == 1025
    decoder = FrameDecoder(max_frame_bytes=1024)
    with pytest.raises(ProtocolError, match="exceeds"):
        decoder.feed(struct.pack(">I", len(body)) + body)


def test_garbage_after_valid_frame_still_poisons_the_stream():
    """A well-framed garbage body following a good frame must raise —
    the good frame decodes, but the stream is then unrecoverable (the
    client maps this to a dead connection and relies on commit tokens,
    never on resynchronization)."""
    good = encode_frame({"id": 1, "ok": True, "result": None})
    garbage = struct.pack(">I", 9) + b"\x00\xffnotjson"
    decoder = FrameDecoder()
    assert decoder.feed(good) == [{"id": 1, "ok": True, "result": None}]
    with pytest.raises(ProtocolError, match="not valid JSON"):
        decoder.feed(garbage)


def test_complete_frames_before_a_corrupt_one_are_not_lost():
    """One chunk of good frames then a corrupt one: the good frames
    come back first, and the stream stays poisoned — the next feed and
    ``eof`` raise."""
    good = [{"id": i, "verb": "ping", "args": {}} for i in (1, 2)]
    decoder = FrameDecoder()
    chunk = b"".join(encode_frame(p) for p in good) + struct.pack(">I", 0)
    assert decoder.feed(chunk) == good
    with pytest.raises(ProtocolError, match="zero-length"):
        decoder.feed(encode_frame(good[0]))
    with pytest.raises(ProtocolError, match="zero-length"):
        decoder.eof()
    garbage = struct.pack(">I", 9) + b"\x00\xffnotjson"
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(good[0]) + garbage) == good[:1]
    with pytest.raises(ProtocolError, match="not valid JSON"):
        decoder.feed(b"")


def test_body_decode_accepts_and_rejects_what_json_loads_does():
    """Bodies go through the JSON scanner; whitespace around the
    object and trailing garbage take the ``json.loads`` path."""
    def feed(body: bytes):
        return FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    assert feed(b' {"a": [1, 2.5, "\\u00e9"]} \n') == [
        {"a": [1, 2.5, "\u00e9"]}]
    assert feed('{"s":"ünï"}'.encode()) == [{"s": "ünï"}]
    for bad in (b'{"a":1} x', b'{"a":1}{"b":2}', b'{"a":}', b"\xef\xbb\xbf{}",
                b"NaNx", b"[1]"):
        with pytest.raises(ProtocolError):
            feed(bad)


def test_decoder_stays_in_sync_after_good_frames():
    good = encode_frame({"id": 1, "verb": "ping", "args": {}})
    decoder = FrameDecoder()
    decoder.feed(good + good)
    with pytest.raises(ProtocolError):
        decoder.feed(struct.pack(">I", 0))


# ----------------------------------------------------------------------
# Request / response / error frames
# ----------------------------------------------------------------------

def test_request_and_ok_response_shape():
    assert request(3, "get", table="kv", key=1) == {
        "id": 3, "verb": "get", "args": {"table": "kv", "key": 1}}
    assert ok_response(3, {"row": None}) == {
        "id": 3, "ok": True, "result": {"row": None}}


def test_error_frame_round_trips_exception_type():
    frame = error_response(5, SessionStateError("no active transaction"))
    assert frame["ok"] is False
    assert frame["error"]["code"] == "SessionStateError"
    exc = error_to_exception(frame["error"])
    assert isinstance(exc, SessionStateError)
    assert "no active transaction" in str(exc)


def test_error_round_trip_preserves_subclasses():
    for original in (TupleNotFoundError("kv[9]"), ProtocolError("bad"),
                     ServerError("boom")):
        rebuilt = error_to_exception(
            error_response(1, original)["error"])
        assert type(rebuilt) is type(original)


def test_unknown_error_code_degrades_to_server_error():
    exc = error_to_exception({"code": "NoSuchError", "message": "?"})
    assert isinstance(exc, ServerError)


def test_malformed_error_frame_degrades_to_server_error():
    assert isinstance(error_to_exception(None), ServerError)
    assert isinstance(error_to_exception("nope"), ServerError)


# ----------------------------------------------------------------------
# Value codec: tuples survive JSON
# ----------------------------------------------------------------------

def test_tuple_round_trip():
    value = (1, "a", (2, 3))
    assert unwire_value(wire_value(value)) == value


def test_nested_structures_round_trip():
    value = {"rows": [((1, 2), {"v": "x"}), ((3, 4), {"v": "y"})],
             "plain": [1, 2, 3], "none": None}
    wired = wire_value(value)
    json.dumps(wired)           # must be JSON-encodable as-is
    assert unwire_value(wired) == value


def test_plain_dicts_pass_through_unchanged():
    value = {"k": 1, "v": "hello"}
    assert wire_value(value) == value
    assert unwire_value(value) == value


# ----------------------------------------------------------------------
# Schema codec
# ----------------------------------------------------------------------

def _schema():
    return Schema.build(
        "orders",
        [Column("id", ColumnType.INT),
         Column("who", ColumnType.STRING, capacity=32),
         Column("qty", ColumnType.INT)],
        primary_key=["id"],
        secondary_indexes={"by_who": ["who"]})


def test_schema_round_trip():
    schema = _schema()
    rebuilt = schema_from_wire(schema_to_wire(schema))
    assert rebuilt.table == schema.table
    assert [c.name for c in rebuilt.columns] == \
        [c.name for c in schema.columns]
    assert list(rebuilt.primary_key) == list(schema.primary_key)
    assert set(rebuilt.secondary_indexes) == {"by_who"}
    json.dumps(schema_to_wire(schema))  # wire form is pure JSON


def test_malformed_schema_rejected():
    with pytest.raises(ProtocolError):
        schema_from_wire("not a dict")
    with pytest.raises(ProtocolError):
        schema_from_wire({"table": "t"})            # missing columns
    with pytest.raises(ProtocolError):
        schema_from_wire({"table": "t", "columns": [{"name": "k"}],
                          "primary_key": ["k"]})    # missing type
