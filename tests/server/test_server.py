"""End-to-end tests of the network tier: a loopback ServerThread
driven through ReproClient. Covers session lifecycle over the wire,
error taxonomy propagation, concurrent-session isolation, admission
control, crash/recover mid-session, and the group-commit lost-commit
contract."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.core.schema import Column, ColumnType, Schema
from repro.client import ReproClient
from repro.errors import (CrashedError, DatabaseClosedError,
                          ProtocolError, ServerError, SessionStateError,
                          TupleNotFoundError)
from repro.server import (GroupCommitConfig, ProcedureRegistry,
                          ServerConfig, ServerThread)
from repro.server import server as server_module
from repro.server.protocol import PROTOCOL_VERSION, FrameDecoder

from .holder import Holder

KV = Schema.build(
    "kv", [Column("k", ColumnType.INT),
           Column("v", ColumnType.STRING, capacity=64)],
    primary_key=["k"])

#: Fast timer backstop so single-session commits return promptly.
_GC = GroupCommitConfig(batch_size=8, max_hold_ns=1e18,
                        max_hold_wall_s=0.005)


def _registry() -> ProcedureRegistry:
    registry = ProcedureRegistry()

    @registry.procedure("put")
    def put(ctx, key, value):
        ctx.insert("kv", {"k": key, "v": value})
        return key

    @registry.procedure("bump")
    def bump(ctx, key):
        row = ctx.get("kv", key)
        ctx.update("kv", key, {"v": row["v"] + "!"})
        return ctx.get("kv", key)["v"]

    @registry.procedure("explode")
    def explode(ctx, key):
        ctx.insert("kv", {"k": key, "v": "doomed"})
        raise ValueError("procedure bug")

    return registry


@pytest.fixture()
def server():
    config = ServerConfig(engine="nvm-inp", group_commit=_GC)
    with ServerThread(config, procedures=_registry()) as thread:
        yield thread.server


@pytest.fixture()
def client(server):
    with ReproClient(*server.address) as c:
        c.create_table(KV)
        yield c


# ----------------------------------------------------------------------
# Handshake and basic lifecycle
# ----------------------------------------------------------------------

def test_hello_banner(server):
    with ReproClient(*server.address) as c:
        info = c.server_info
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["engine"] == "nvm-inp"
        assert info["group_commit"]["enabled"] is True
        assert c.ping()["now_ns"] >= 0


def test_session_round_trip(client):
    with client.session("alice") as session:
        session.begin()
        session.insert("kv", {"k": 1, "v": "hello"})
        session.insert("kv", {"k": 2, "v": "world"})
        assert session.get("kv", 1)["v"] == "hello"
        session.commit()

        session.begin()
        rows = session.scan("kv")
        assert [row["v"] for _, row in rows] == ["hello", "world"]
        session.update("kv", 2, {"v": "there"})
        session.delete("kv", 1)
        session.commit()

        session.begin()
        assert session.get("kv", 1) is None
        assert session.get("kv", 2)["v"] == "there"
        session.abort()


def test_schema_round_trip_over_wire(client):
    schema = client.schema("kv")
    assert schema.table == "kv"
    assert [c.name for c in schema.columns] == ["k", "v"]


def test_abort_rolls_back(client):
    with client.session() as session:
        session.begin()
        session.insert("kv", {"k": 9, "v": "ghost"})
        session.abort()
        session.begin()
        assert session.get("kv", 9) is None
        session.commit()


# ----------------------------------------------------------------------
# Error taxonomy over the wire
# ----------------------------------------------------------------------

def test_session_state_errors_propagate(client):
    with client.session() as session:
        with pytest.raises(SessionStateError):
            session.commit()            # no active transaction
        session.begin()
        with pytest.raises(SessionStateError):
            session.begin()             # already active
        session.abort()
        with pytest.raises(SessionStateError):
            session.abort()


def test_engine_errors_propagate_with_type(client):
    with client.session() as session:
        session.begin()
        with pytest.raises(TupleNotFoundError):
            session.update("kv", 404, {"v": "x"})
        session.abort()


def test_unknown_session_rejected(client):
    with pytest.raises(ProtocolError, match="no open session"):
        client.call("begin", session=987654, partition=0)


def test_closed_session_rejected(client):
    session = client.session("gone")
    session.close()
    with pytest.raises(ProtocolError, match="no open session"):
        client.call("begin", session=session.session_id, partition=0)


def test_unknown_verb_rejected(client):
    with pytest.raises(ProtocolError, match="unknown verb"):
        client.call("frobnicate")


def test_non_integer_session_id_is_a_protocol_error_not_a_disconnect(
        server):
    """A well-framed request whose ``session`` is not an integer (here
    an unhashable list) earns an error frame; only corrupt *framing*
    drops a connection."""
    with ReproClient(*server.address, retries=0) as c:
        sockets_before = c.reconnects
        for verb in ("ping", "begin", "commit"):
            for bad_id in ([1], {"id": 1}, "1", 1.5):
                with pytest.raises(ProtocolError, match="session"):
                    c.call(verb, session=bad_id)
        assert c.ping()["now_ns"] >= 0      # same connection, still up
        assert c.reconnects == sockets_before
        assert c.stats()["errors"] == 12


def test_bad_partition_rejected(client):
    with client.session() as session:
        with pytest.raises(ProtocolError, match="no such partition"):
            session.begin(partition=7)


def test_corrupt_frame_gets_error_then_disconnect(server):
    """A garbage length prefix earns one structured error frame, then
    the server drops the connection (no resynchronization)."""
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", 0xFFFFFFFF))
        decoder = FrameDecoder()
        frames = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            frames.extend(decoder.feed(data))
        assert len(frames) == 1
        assert frames[0]["ok"] is False
        assert frames[0]["error"]["code"] == "ProtocolError"


# ----------------------------------------------------------------------
# Stored procedures
# ----------------------------------------------------------------------

def test_stored_procedure_call(client):
    with client.session() as session:
        assert session.call("put", 10, "stored") == 10
        assert session.call("bump", 10) == "stored!"
        session.begin()
        assert session.get("kv", 10)["v"] == "stored!"
        session.abort()
    assert set(client.procedures()) == {"put", "bump", "explode"}


def test_unknown_procedure_rejected(client):
    with client.session() as session:
        with pytest.raises(ServerError, match="unknown procedure"):
            session.call("nope")


def test_failing_procedure_aborts_and_reports(client):
    with client.session() as session:
        with pytest.raises(ServerError, match="procedure bug"):
            session.call("explode", 11)
        # The abort rolled the insert back and the session is reusable.
        session.begin()
        assert session.get("kv", 11) is None
        session.commit()


# ----------------------------------------------------------------------
# Concurrent-session isolation (execution is serial per partition)
# ----------------------------------------------------------------------

def test_concurrent_sessions_serialize_on_the_partition(server):
    """B's begin must wait until A's transaction finishes, so B can
    only ever observe A's committed state."""
    with ReproClient(*server.address) as admin:
        admin.create_table(KV)
    a_client = ReproClient(*server.address)
    a_client.connect()
    b_client = ReproClient(*server.address)
    b_client.connect()
    try:
        a = a_client.session("a")
        a.begin()
        a.insert("kv", {"k": 100, "v": "from-a"})

        b_saw = {}
        b_started = threading.Event()

        def b_txn():
            b = b_client.session("b")
            b_started.set()
            b.begin()                   # parks behind A's lock
            row = b.get("kv", 100)
            b_saw["row"] = row
            b.commit()
            b.close()

        thread = threading.Thread(target=b_txn, daemon=True)
        thread.start()
        b_started.wait(timeout=10.0)
        time.sleep(0.2)                 # B is parked in begin
        assert thread.is_alive()
        a.commit()                      # releases the partition
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert b_saw["row"]["v"] == "from-a"
        a.close()
    finally:
        a_client.close()
        b_client.close()


def test_aborted_work_invisible_to_next_session(server):
    with ReproClient(*server.address) as admin:
        admin.create_table(KV)
        with admin.session("a") as a:
            a.begin()
            a.insert("kv", {"k": 200, "v": "doomed"})
            a.abort()
    with ReproClient(*server.address) as c:
        with c.session("b") as b:
            b.begin()
            assert b.get("kv", 200) is None
            b.commit()


def test_admission_control_bounds_inflight(server=None):
    config = ServerConfig(engine="nvm-inp", max_inflight=1,
                          group_commit=_GC)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
        a_client = ReproClient(host, port)
        a_client.connect()
        b_client = ReproClient(host, port)
        b_client.connect()
        try:
            a = a_client.session("a")
            a.begin()

            b_done = threading.Event()

            def b_txn():
                b = b_client.session("b")
                b.begin()               # parks on the admission sem
                b.commit()
                b.close()
                b_done.set()

            thread_b = threading.Thread(target=b_txn, daemon=True)
            thread_b.start()
            time.sleep(0.2)
            assert not b_done.is_set()  # bounded: only one in flight
            a.commit()
            assert b_done.wait(timeout=10.0)
            a.close()
            assert a_client.stats()["admission"]["waits"] >= 1
        finally:
            a_client.close()
            b_client.close()


# ----------------------------------------------------------------------
# Crash / recover mid-session
# ----------------------------------------------------------------------

def test_crash_recover_mid_session(server):
    with ReproClient(*server.address) as admin:
        admin.create_table(KV)
        with admin.session("writer") as w:
            w.begin()
            w.insert("kv", {"k": 1, "v": "durable"})
            w.commit()                  # durable before the crash

        victim = admin.session("victim")
        victim.begin()
        victim.insert("kv", {"k": 2, "v": "in-flight"})

        result = admin.crash()
        assert result["crashed"] is True
        assert result["lost_commits"] == 0      # nothing awaiting

        # The victim's transaction died with the power.
        with pytest.raises(SessionStateError):
            client_commit = victim.commit()     # noqa: F841
        # A crashed database refuses new transactions until recovery.
        with pytest.raises(CrashedError):
            victim.begin()

        admin.recover()

        # Committed data survived; the in-flight insert did not.
        victim.begin()
        assert victim.get("kv", 1)["v"] == "durable"
        assert victim.get("kv", 2) is None
        victim.insert("kv", {"k": 3, "v": "post-recovery"})
        victim.commit()
        victim.begin()
        assert victim.get("kv", 3)["v"] == "post-recovery"
        victim.commit()
        victim.close()

        stats = admin.stats()
        assert stats["crashed"] is False


def test_lost_commit_contract(server):
    """The group-commit contract: a power failure between the logical
    commit and the batch's durable point loses the transaction, and
    the committer is told so (CrashedError), never a false durable.

    Uses the WAL-based ``inp`` engine: its durable point is the WAL
    fsync, so an unflushed commit genuinely rolls back at recovery
    (the NVM-aware engines persist at the logical commit and have
    nothing to lose — that is their whole point)."""
    config = ServerConfig(
        engine="inp",
        group_commit=GroupCommitConfig(batch_size=64, max_hold_ns=1e18,
                                       max_hold_wall_s=3600.0))
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            committer_error = {}

            def commit_then_lose():
                with ReproClient(host, port) as c:
                    with c.session("loser") as s:
                        s.begin()
                        s.insert("kv", {"k": 5, "v": "lost"})
                        # Queued behind this transaction: somebody
                        # who could still join the batch.
                        committer_error["holder"] = Holder((host, port))
                        try:
                            s.commit()  # parks awaiting the batch
                        except Exception as exc:
                            committer_error["exc"] = exc

            t = threading.Thread(target=commit_then_lose, daemon=True)
            t.start()
            # Wait until the commit is parked on the stage.
            for _ in range(200):
                pending = sum(s["pending"] for s in
                              admin.stats()["group_commit"])
                if pending:
                    break
                time.sleep(0.02)
            assert pending == 1

            assert admin.crash()["lost_commits"] == 1
            t.join(timeout=10.0)
            assert isinstance(committer_error["exc"], CrashedError)

            admin.recover()
            with admin.session("reader") as r:
                r.begin()
                assert r.get("kv", 5) is None   # the commit was lost
                r.abort()
            committer_error["holder"].close()


def test_flush_verb_forces_durability(server):
    config = ServerConfig(
        engine="nvm-inp",
        group_commit=GroupCommitConfig(batch_size=64, max_hold_ns=1e18,
                                       max_hold_wall_s=3600.0))
    with ServerThread(config) as thread:
        host, port = thread.server.address
        admin = ReproClient(host, port)
        admin.connect()
        admin.create_table(KV)
        done = threading.Event()

        def committer():
            with ReproClient(host, port) as c:
                with c.session() as s:
                    s.begin()
                    s.insert("kv", {"k": 7, "v": "flushed"})
                    s.commit()
            done.set()

        t = threading.Thread(target=committer, daemon=True)
        t.start()
        for _ in range(200):
            if sum(s["pending"] for s in
                   admin.stats()["group_commit"]):
                break
            time.sleep(0.02)
        admin.flush()                   # resolves the parked commit
        assert done.wait(timeout=10.0)
        admin.close()


def test_lone_commits_arm_no_wall_timer(monkeypatch):
    """A commit nobody can join is flushed by its own release of the
    partition lock (``quiet``); the wall-clock backstop is armed only
    for a batch still parked after that, so 200 lone commits make no
    ``call_later`` call at all."""
    with ServerThread(ServerConfig(engine="nvm-inp")) as thread, \
            ReproClient(*thread.server.address) as client:
        loop, armed = thread.server._loop, []
        call_later = loop.call_later
        monkeypatch.setattr(loop, "call_later", lambda *args: (
            armed.append(args), call_later(*args))[1])
        client.create_table(KV)
        with client.session("lone") as session:
            for key in range(200):
                session.begin()
                session.insert("kv", {"k": key, "v": "alone"})
                session.commit()
        assert armed == []
        assert client.stats()["group_commit"][0]["flush_reasons"] == {
            "quiet": 200}


# ----------------------------------------------------------------------
# Stats and shutdown
# ----------------------------------------------------------------------

def test_stats_shape(client):
    with client.session("measured") as session:
        for key in range(3):
            session.begin()
            session.insert("kv", {"k": 50 + key, "v": "x"})
            session.commit()
    stats = client.stats()
    assert stats["engine"] == "nvm-inp"
    assert stats["committed_txns"] >= 3
    gc = stats["group_commit"][0]
    assert gc["txns"] >= 3 and gc["batches"] >= 1
    assert gc["rounds_per_txn"] >= 0
    latency = stats["latency_ns"]["measured"]
    assert set(latency) >= {"p50", "p95", "p99"}
    assert latency["p50"] > 0
    assert stats["frames"] > 0


def test_per_session_latency_series_are_bounded():
    """The histogram map is keyed by a client-supplied name: it and
    the labelled series behind it must not grow with every name."""
    cap = server_module._MAX_CLIENT_KEYED_ENTRIES
    config = ServerConfig(
        engine="nvm-inp",
        group_commit=GroupCommitConfig(batch_size=1, max_hold_ns=1e18,
                                       max_hold_wall_s=0.005))
    with ServerThread(config, procedures=_registry()) as thread:
        server = thread.server
        with ReproClient(*server.address) as c:
            c.create_table(KV)
            for index in range(cap + 40):
                with c.session(f"one-shot-{index}") as session:
                    session.call("put", index, "x")
            with c.session("measured") as session:
                session.call("put", -1, "x")
            latency = c.stats()["latency_ns"]
        assert len(server._latency_hists) == cap
        series = [metric for metric in server.metrics.collect()
                  if metric.name == "server.txn_latency_ns"]
        assert len(series) == cap
        # Oldest names went first; the newest are all still reported.
        assert "one-shot-0" not in latency
        assert f"one-shot-{cap + 39}" in latency
        assert latency["measured"]["p50"] > 0


def test_multi_partition_sessions(tmp_path):
    config = ServerConfig(engine="nvm-inp", partitions=2,
                          group_commit=_GC)
    with ServerThread(config) as thread:
        with ReproClient(*thread.server.address) as c:
            c.create_table(KV)
            with c.session() as s:
                s.begin(partition=1)
                s.insert("kv", {"k": 1, "v": "p1"})
                s.commit()
                s.begin(partition=0)
                # Partitions are independent stores.
                assert s.get("kv", 1) is None
                s.commit()
                s.begin(partition=1)
                assert s.get("kv", 1)["v"] == "p1"
                s.commit()
            assert len(c.stats()["group_commit"]) == 2


def test_shutdown_verb_stops_server():
    config = ServerConfig(engine="nvm-inp", group_commit=_GC)
    thread = ServerThread(config)
    thread.start()
    with ReproClient(*thread.server.address) as c:
        c.shutdown_server()
    thread._thread.join(timeout=10.0)
    assert not thread._thread.is_alive()


def test_crash_on_closed_database_is_refused(server):
    """Driving the verb surface after stop() reports a closed DB."""
    with ReproClient(*server.address) as c:
        c.ping()
    server.database.close()
    with ReproClient(*server.address) as c2:
        with pytest.raises(DatabaseClosedError):
            c2.call("crash")
