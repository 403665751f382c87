"""One connection, byte stream to verbs: frames are decoded as their
bytes arrive, each verb runs inline until it must wait, and replies
leave in request order. Raw sockets, so framing, pipelining and
unread replies are under the test's control."""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.core.schema import Column, ColumnType, Schema
from repro.server import GroupCommitConfig, ServerConfig, ServerThread
from repro.server import server as server_module
from repro.server.protocol import (FrameDecoder, encode_frame, request,
                                   schema_to_wire)

from .holder import Holder
from .test_grants import Wire, _poll

_KV = Schema.build("kv", [Column("k", ColumnType.INT),
                          Column("v", ColumnType.INT)], primary_key=["k"])


@pytest.fixture()
def address():
    with ServerThread(ServerConfig(engine="nvm-inp")) as thread:
        yield thread.server.address


def _drain(sock):
    """Every frame until the server closes the connection."""
    decoder, frames = FrameDecoder(), []
    while True:
        data = sock.recv(65536)
        if not data:
            decoder.eof()
            return frames
        frames.extend(decoder.feed(data))


def test_frame_round_trip_byte_at_a_time(address):
    """A request dribbled in one byte per segment is reassembled and
    answered with its own id."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        blob = encode_frame(request(9, "stats"))
        for index in range(len(blob)):
            sock.sendall(blob[index:index + 1])
        decoder, frames = FrameDecoder(), []
        while not frames:
            frames.extend(decoder.feed(sock.recv(65536)))
        assert frames[0]["id"] == 9 and frames[0]["ok"] is True
        assert frames[0]["result"]["frames"] == 1


def test_oversized_prefix_gets_error_then_disconnect():
    config = ServerConfig(engine="nvm-inp", max_frame_bytes=1024)
    with ServerThread(config) as thread, \
            socket.create_connection(thread.server.address,
                                     timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", 4096) + b"x" * 4096)
        (frame,) = _drain(sock)
        assert frame["id"] is None and frame["ok"] is False
        assert frame["error"]["code"] == "ProtocolError"
        assert "exceeds" in frame["error"]["message"]


def test_truncated_frame_then_eof_closes_without_a_reply(address):
    """A peer that dies mid-frame gets no answer and takes its session
    with it; the server keeps serving everybody else."""
    doomed = Wire(address)
    session = doomed.ok("open_session", name="doomed")["session"]
    doomed.sock.sendall(encode_frame(request(
        99, "close_session", session=session))[:-2])
    doomed.sock.shutdown(socket.SHUT_WR)
    assert _drain(doomed.sock) == []
    doomed.close()
    admin = Wire(address)
    stats = admin.ok("stats")
    assert stats["sessions"] == [] and stats["errors"] == 0
    admin.close()


def test_frames_before_a_corrupt_one_are_answered_first(address):
    """One ``sendall`` of [ping, zero-length header]: the ping reply,
    then one error frame with id null, then EOF."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(encode_frame(request(1, "ping"))
                     + struct.pack(">I", 0))
        ping, error = _drain(sock)
        assert ping["id"] == 1 and ping["ok"] is True
        assert error["id"] is None and error["ok"] is False
        assert error["error"]["code"] == "ProtocolError"
        assert "zero-length" in error["error"]["message"]


def test_pipelined_frames_are_answered_in_order(address):
    """A begin that parks on the lock parks its connection: the frames
    queued behind it wait, then every reply leaves in request order."""
    holder = Wire(address)
    holder.ok("create_table", schema=schema_to_wire(_KV))
    held = holder.ok("open_session", name="holder")["session"]
    holder.ok("begin", session=held, partition=0)
    wire = Wire(address)
    session = wire.ok("open_session", name="queued")["session"]
    ids = [100, 101, 102, 103]
    wire.sock.sendall(b"".join([
        encode_frame(request(ids[0], "begin", session=session,
                             partition=0)),
        encode_frame(request(ids[1], "insert", session=session,
                             table="kv", values={"k": 1, "v": 1})),
        encode_frame(request(ids[2], "commit", session=session)),
        encode_frame(request(ids[3], "ping"))]))
    time.sleep(0.05)
    wire.sock.setblocking(False)
    with pytest.raises(BlockingIOError):
        wire.sock.recv(65536)          # nothing answered while parked
    wire.sock.setblocking(True)
    holder.ok("abort", session=held)
    replies = [wire.recv() for __ in ids]
    assert [reply["id"] for reply in replies] == ids
    assert all(reply["ok"] for reply in replies), replies
    assert replies[2]["result"]["durable"] is True
    for w in (holder, wire):
        w.close()


def test_parked_commit_outlives_its_disconnected_client():
    """A commit parked on group commit is not cancelled when its client
    goes away: the batch still makes it durable, its token resolves,
    and the connection's session closes once the commit has answered."""
    config = ServerConfig(engine="nvm-inp", group_commit=GroupCommitConfig(
        batch_size=64, max_hold_ns=1e18, max_hold_wall_s=3600.0))
    with ServerThread(config) as thread:
        address = thread.server.address
        admin = Wire(address)
        admin.ok("create_table", schema=schema_to_wire(_KV))
        wire = Wire(address)
        session = wire.ok("open_session", name="gone")["session"]
        wire.ok("begin", session=session, partition=0)
        wire.ok("insert", session=session, table="kv",
                values={"k": 1, "v": 1})
        holder = Holder(address)
        wire.send("commit", session=session, token="gone:1")
        holder.granted()
        assert admin.ok("commit_status", token="gone:1")["status"] \
            == "pending"
        wire.close()
        assert _poll(lambda: len(admin.ok("stats")["sessions"]) == 2)
        holder.ok("abort", session=holder.session)
        assert admin.ok("commit_status", token="gone:1")["status"] \
            == "durable"
        assert _poll(lambda: [s["name"] for s in admin.ok("stats")[
            "sessions"]] == ["holder"])
        stats = admin.ok("stats")
        assert stats["admission"]["in_flight"] == 0
        assert stats["locks_held"] == []
        for w in (admin, holder):
            w.close()


def test_unread_replies_pause_the_connection(monkeypatch):
    """Write backpressure: a client that sends 200 ``scan`` requests
    over 4,096 rows and reads nothing holds the server's write buffer
    to its high-water mark plus one frame; once it reads, all 200
    answers arrive in order."""
    over, sizes = [], []
    send, encode = server_module._Connection._send, encode_frame

    def observed_send(conn, response):
        send(conn, response)
        over.append(conn.transport.get_write_buffer_size()
                    - conn.transport.get_write_buffer_limits()[1])

    def observed_encode(payload, **kwargs):
        frame = encode(payload, **kwargs)
        sizes.append(len(frame))
        return frame

    monkeypatch.setattr(server_module._Connection, "_send", observed_send)
    monkeypatch.setattr(server_module, "encode_frame", observed_encode)
    with ServerThread(ServerConfig(engine="nvm-inp")) as thread:
        wire = Wire(thread.server.address)
        wire.ok("create_table", schema=schema_to_wire(_KV))
        session = wire.ok("open_session", name="scanner")["session"]
        for base in range(0, 4096, 512):
            wire.ok("begin", session=session, partition=0)
            for key in range(base, base + 512):
                wire.send("insert", session=session, table="kv",
                          values={"k": key, "v": key})
            for __ in range(512):
                assert wire.recv()["ok"]
            wire.ok("commit", session=session)
        wire.ok("begin", session=session, partition=0)
        before = len(over)
        first = next(wire.ids)
        wire.sock.sendall(b"".join(
            encode_frame(request(first + n, "scan", session=session,
                                 table="kv", lo=None, hi=None))
            for n in range(200)))
        # The server stops answering once the buffer is full.
        settled = [-1]

        def stalled():
            seen, settled[0] = settled[0], len(over)
            return seen == settled[0]

        assert _poll(stalled, timeout=30.0, interval=0.2)
        assert len(over) - before < 200
        replies = [wire.recv() for __ in range(200)]
        assert [reply["id"] for reply in replies] == \
            [first + n for n in range(200)]
        assert all(len(reply["result"]["rows"]) == 4096
                   for reply in replies)
        assert max(over) <= max(sizes)
        wire.close()
