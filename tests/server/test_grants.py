"""Grants follow session state, and a power failure has one path.

The server's rule is stated once (``DatabaseServer._settle``): the
partition lock belongs to a session with an active transaction, the
admission slot to one that is active or awaiting its durable point.
These tests check the rule from the outside, through ``stats``: a
seeded model drives random verb sequences and compares after every
response, and a table-driven case fires a ``SimulatedCrash`` inside
each verb family and demands the same outcome from all of them. The
model also knows when a commit parks: iff another slot holds or is
queued on its partition's lock — and when the last such slot leaves,
every commit parked there is durable.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import re
import socket
import time

import pytest

from repro.client import RETRYABLE_VERBS
from repro.core.schema import Column, ColumnType, Schema
from repro.fault.injector import FaultPlan
from repro.server import (DatabaseServer, GroupCommitConfig,
                          ProcedureRegistry, ServerConfig, ServerThread)
from repro.server.protocol import (FrameDecoder, encode_frame, request,
                                   schema_to_wire)

KV = Schema.build(
    "kv", [Column("k", ColumnType.INT),
           Column("v", ColumnType.STRING, capacity=64)],
    primary_key=["k"])

#: Huge hold: a commit parked behind a session that could still join
#: its batch stays parked until that session leaves or a flush verb.
_GC_PARKED = GroupCommitConfig(batch_size=64, max_hold_ns=1e18,
                               max_hold_wall_s=3600.0)


def _registry() -> ProcedureRegistry:
    registry = ProcedureRegistry()

    @registry.procedure("put")
    def put(ctx, key, value):
        ctx.insert("kv", {"k": key, "v": value})
        return key

    @registry.procedure("explode")
    def explode(ctx, key):
        ctx.insert("kv", {"k": key, "v": "doomed"})
        raise ValueError("procedure bug")

    return registry


class Wire:
    """One raw connection: frames can be sent without waiting for the
    answer, which is how a commit is left parked on group commit."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.decoder = FrameDecoder()
        self.frames = []
        self.ids = itertools.count(1)

    def send(self, verb, **args) -> None:
        self.sock.sendall(encode_frame(request(next(self.ids), verb,
                                               **args)))

    def recv(self):
        while not self.frames:
            data = self.sock.recv(65536)
            assert data, "server dropped the connection"
            self.frames.extend(self.decoder.feed(data))
        return self.frames.pop(0)

    def call(self, verb, **args):
        self.send(verb, **args)
        return self.recv()

    def ok(self, verb, **args):
        frame = self.call(verb, **args)
        assert frame["ok"], frame
        return frame["result"]

    def code(self, verb, **args):
        """The error code a verb is refused with."""
        frame = self.call(verb, **args)
        assert not frame["ok"], frame
        return frame["error"]["code"]

    def close(self) -> None:
        self.sock.close()


def _poll(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------

class _Slot:
    """One of the three session seats: which connection it sits on and
    what the model believes its session is doing."""

    def __init__(self, conn: int) -> None:
        self.conn = conn
        self.session = None         # wire session id (None = no session)
        # closed | open | active | awaiting | blocked (in begin/call,
        # queued on a partition lock another connection's slot holds)
        self.state = "closed"
        self.pid = None
        self.calling = False        # blocked in a call, not a begin


class _Model:
    PARTITIONS = 2

    def __init__(self, thread: ServerThread, seed: int) -> None:
        self.thread = thread
        self.address = thread.server.address
        self.rng = random.Random(seed)
        self.admin = Wire(self.address)
        self.conns = [Wire(self.address), Wire(self.address)]
        self.slots = [_Slot(0), _Slot(0), _Slot(1)]
        self.crashed = False
        self.keys = itertools.count(1000)
        self.seen = set()           # what the walk exercised
        self.last = None            # its latest action
        self.admin.ok("create_table", schema=schema_to_wire(KV))

    # -- what the rule says ``stats`` must show -------------------------

    def check(self) -> None:
        stats = self.admin.ok("stats")
        held = [s for s in self.slots
                if s.state in ("active", "awaiting", "blocked")]
        active = sorted({s.pid for s in self.slots
                         if s.state == "active"})
        context = (self.last,
                   [(s.session, s.state, s.pid) for s in self.slots])
        assert stats["admission"]["in_flight"] == len(held), context
        assert stats["locks_held"] == active, context
        assert stats["admission"]["queue"] == 0, context
        assert stats["crashed"] is self.crashed, context
        live = {s["session"]: s for s in stats["sessions"]}
        for slot in self.slots:
            if slot.state == "closed":
                assert slot.session not in live, context
                continue
            entry = live[slot.session]
            assert entry["state"] == ("active-txn" if slot.state
                                      == "active" else "open"), context
            assert entry["awaiting"] is (slot.state == "awaiting"), \
                context

    # -- helpers --------------------------------------------------------

    def blocked(self, conn: int) -> bool:
        """A connection with a parked commit, or a begin queued on a
        partition lock, answers nothing else."""
        return any(s.conn == conn and s.state in ("awaiting", "blocked")
                   for s in self.slots)

    def holder(self, pid):
        return next((s for s in self.slots
                     if s.state == "active" and s.pid == pid), None)

    def free_partition(self):
        free = [pid for pid in range(self.PARTITIONS)
                if self.holder(pid) is None]
        return self.rng.choice(free) if free else None

    def pick_partition(self, slot: _Slot):
        """``(pid, queued)`` for a begin or call: a free partition,
        or — half the time there is one — a partition whose lock a
        slot on *another* connection holds (queueing behind its own
        connection would wedge both)."""
        free = self.free_partition()
        held = [pid for pid in range(self.PARTITIONS)
                if self.holder(pid) is not None
                and self.holder(pid).conn != slot.conn]
        if held and (free is None or self.rng.random() < 0.5):
            return self.rng.choice(held), True
        return free, False

    def send_and_wait(self, slot: _Slot, state: str, flag: str,
                      verb: str, **args) -> None:
        """Send a verb whose answer stays out — a commit parked on
        group commit (``awaiting``), a begin or call queued on the
        partition lock (``busy``) — once ``stats`` shows it there."""
        self.seen.add(state)
        self.conns[slot.conn].send(verb, session=slot.session, **args)
        assert _poll(lambda: any(
            s["session"] == slot.session and s[flag]
            for s in self.admin.ok("stats")["sessions"]))
        slot.state = state

    def waiter(self, pid):
        return next((s for s in self.slots
                     if s.state == "blocked" and s.pid == pid), None)

    def commit(self, slot: _Slot) -> None:
        """The rule: a commit parks iff somebody could still join its
        batch — here, a slot queued on the partition lock."""
        pid, waiter = slot.pid, self.waiter(slot.pid)
        if waiter is None:
            self.conns[slot.conn].ok("commit", session=slot.session)
            slot.state, slot.pid = "open", None
        elif waiter.calling:
            # Parked only until the call behind it has committed too —
            # too briefly to be seen in ``stats``.
            self.conns[slot.conn].send("commit", session=slot.session)
            slot.state = "awaiting"
        else:
            self.send_and_wait(slot, "awaiting", "awaiting", "commit")
        self.left(pid)

    def left(self, pid) -> None:
        """The lock on ``pid`` was just released. It passes to the
        slot queued on it; with nobody queued the partition is quiet
        and every commit parked there is durable."""
        waiter = self.waiter(pid)
        if waiter is None:
            self.collect_parked(expect_ok=True, pid=pid)
            return
        assert self.conns[waiter.conn].recv()["ok"]
        if waiter.calling:                  # ran, committed, left
            waiter.state, waiter.pid = "open", None
            self.left(pid)
        else:
            waiter.state = "active"

    def collect_parked(self, expect_ok: bool, pid=None) -> None:
        for slot in self.slots:
            if slot.state == "awaiting" and pid in (None, slot.pid):
                frame = self.conns[slot.conn].recv()
                assert frame["ok"] is expect_ok, frame
                if not expect_ok:
                    assert frame["error"]["code"] == "CrashedError"
                slot.state, slot.pid = "open", None

    def forget(self, slot: _Slot) -> None:
        """The slot's session is gone, and its transaction with it."""
        left = slot.pid if slot.state == "active" else None
        slot.session, slot.state, slot.pid = None, "closed", None
        if left is not None:
            self.left(left)

    # -- one random step ------------------------------------------------

    def step(self) -> None:
        roll = self.rng.random()
        if roll < 0.06:
            return self.do("flush")
        # (A parked commit is short-lived now: strike while it lasts.)
        parked = any(s.state == "awaiting" for s in self.slots)
        if roll < (0.30 if parked else 0.10):
            return self.do("crash")
        if self.crashed and roll < 0.35:
            return self.do("recover")
        if roll < 0.13:
            return self.do("drop")
        # Never both connections: a slot only queues behind, or parks
        # ahead of, a slot on the other one.
        slot = self.rng.choice([s for s in self.slots
                                if not self.blocked(s.conn)])
        if slot.state == "closed":
            return self.do("open_session", slot)
        if roll < 0.17:
            return self.do("expire", slot)
        if roll < 0.22:
            return self.do("close_session", slot)
        if slot.state == "open":
            return self.do(self.rng.choice(
                ["begin", "begin", "begin", "call_put", "call_explode",
                 "call_unknown", "commit_idle", "op_idle"]), slot)
        return self.do(self.rng.choice(
            ["op", "op", "op", "commit", "commit", "abort",
             "begin_twice"]), slot)

    def do(self, action: str, *slot: _Slot) -> None:
        self.seen.add(action)
        self.last = action
        getattr(self, "do_" + action)(*slot)

    # -- global actions -------------------------------------------------

    def do_flush(self) -> None:
        if self.crashed:
            assert self.admin.code("flush") == "CrashedError"
        else:
            self.admin.ok("flush")
            self.collect_parked(expect_ok=True)

    def do_crash(self) -> None:
        parked = sum(s.state == "awaiting" for s in self.slots)
        result = self.admin.ok("crash")
        assert result["lost_commits"] == parked
        if parked:
            self.seen.add("lost")
        self.crashed = True
        self.collect_parked(expect_ok=False)
        for slot in self.slots:
            if slot.state == "blocked":     # got the lock of a dead db
                frame = self.conns[slot.conn].recv()
                assert frame["error"]["code"] == "CrashedError", frame
            if slot.state in ("active", "blocked"):
                slot.state, slot.pid = "open", None

    def do_recover(self) -> None:
        self.admin.ok("recover")
        self.crashed = False

    def do_drop(self) -> None:
        conn = self.rng.randrange(len(self.conns))
        if self.blocked(conn):
            return
        self.conns[conn].close()
        gone = {s.session for s in self.slots
                if s.conn == conn and s.session is not None}
        assert _poll(lambda: not gone & {
            s["session"] for s in self.admin.ok("stats")["sessions"]})
        for slot in self.slots:
            if slot.conn == conn:
                self.forget(slot)
        self.conns[conn] = Wire(self.address)

    # -- per-session actions --------------------------------------------

    def do_open_session(self, slot: _Slot) -> None:
        if self.crashed:
            assert self.conns[slot.conn].code(
                "open_session") == "CrashedError"
            return
        slot.session = self.conns[slot.conn].ok(
            "open_session",
            name=f"seat-{self.slots.index(slot)}")["session"]
        slot.state = "open"

    def do_close_session(self, slot: _Slot) -> None:
        self.conns[slot.conn].ok("close_session", session=slot.session)
        self.forget(slot)

    def do_expire(self, slot: _Slot) -> None:
        """Age the session past its lease and let the reaper find it."""
        server = self.thread.server
        before = self.admin.ok("stats")["reaper"]["expired"]
        remote = server._sessions[slot.session]
        server._loop.call_soon_threadsafe(
            setattr, remote, "last_seen", -1e9)
        assert _poll(lambda: self.admin.ok("stats")["reaper"]["expired"]
                     == before + 1)
        assert self.conns[slot.conn].code(
            "begin", session=slot.session) == "LeaseExpiredError"
        self.forget(slot)

    def do_begin(self, slot: _Slot) -> None:
        conn = self.conns[slot.conn]
        pid, queued = self.pick_partition(slot)
        if self.crashed:
            assert conn.code("begin", session=slot.session,
                             partition=0) == "CrashedError"
        elif queued:
            slot.pid, slot.calling = pid, False
            self.send_and_wait(slot, "blocked", "busy", "begin",
                               partition=pid)
        elif pid is not None:
            conn.ok("begin", session=slot.session, partition=pid)
            slot.state, slot.pid = "active", pid

    def do_begin_twice(self, slot: _Slot) -> None:
        assert self.conns[slot.conn].code(
            "begin", session=slot.session,
            partition=slot.pid) == "SessionStateError"

    def do_op(self, slot: _Slot) -> None:
        """Any table operation, succeeding or refused by the engine:
        the transaction stays open either way."""
        key = self.rng.randrange(8)
        verb, args = self.rng.choice([
            ("insert", {"values": {"k": key, "v": "x"}}),
            ("update", {"key": key, "changes": {"v": "y"}}),
            ("delete", {"key": key}),
            ("get", {"key": key}),
            ("scan", {"lo": None, "hi": None}),
        ])
        self.conns[slot.conn].call(verb, session=slot.session,
                                   table="kv", **args)

    def do_op_idle(self, slot: _Slot) -> None:
        assert self.conns[slot.conn].code(
            "get", session=slot.session, table="kv",
            key=1) == "SessionStateError"

    def do_commit(self, slot: _Slot) -> None:
        self.commit(slot)

    def do_commit_idle(self, slot: _Slot) -> None:
        assert self.conns[slot.conn].code(
            "commit", session=slot.session) == "SessionStateError"

    def do_abort(self, slot: _Slot) -> None:
        self.conns[slot.conn].ok("abort", session=slot.session)
        pid, slot.state, slot.pid = slot.pid, "open", None
        self.left(pid)

    def do_call_put(self, slot: _Slot) -> None:
        """One frame, begin to durable: alone on its partition it
        answers at once; behind a holder it queues like a begin."""
        pid, queued = self.pick_partition(slot)
        args = {"name": "put", "args": [next(self.keys), "stored"]}
        if self.crashed:
            assert self.conns[slot.conn].code(
                "call", session=slot.session, **args) == "CrashedError"
        elif queued:
            slot.pid, slot.calling = pid, True
            self.send_and_wait(slot, "blocked", "busy", "call",
                               partition=pid, **args)
        elif pid is not None:
            self.conns[slot.conn].ok("call", session=slot.session,
                                     partition=pid, **args)

    def do_call_explode(self, slot: _Slot) -> None:
        pid = self.free_partition()
        if pid is not None and not self.crashed:
            assert self.conns[slot.conn].code(
                "call", session=slot.session, name="explode",
                partition=pid, args=[next(self.keys)]) == "ValueError"

    def do_call_unknown(self, slot: _Slot) -> None:
        assert self.conns[slot.conn].code(
            "call", session=slot.session, name="nope",
            args=[]) == "ServerError"

    # -- wind down ------------------------------------------------------

    def finish(self) -> None:
        if self.crashed:
            self.do_recover()
        self.do_flush()
        # A slot queued on a lock answers once its holder has closed.
        for slot in sorted(self.slots,
                           key=lambda s: self.blocked(s.conn)):
            if slot.state != "closed":
                self.do_close_session(slot)
        self.check()
        for wire in self.conns + [self.admin]:
            wire.close()


@pytest.mark.parametrize("seed", [21, 0xD15C])
def test_grants_follow_session_state(seed):
    config = ServerConfig(engine="nvm-inp", partitions=2,
                          group_commit=_GC_PARKED,
                          session_lease_s=60.0, reaper_interval_s=0.01)
    with ServerThread(config, procedures=_registry()) as thread:
        model = _Model(thread, seed)
        for _ in range(400):
            model.step()
            model.check()
        model.finish()
        # The walk is only evidence if it went everywhere.
        assert model.seen >= {
            "begin", "op", "commit", "abort", "call_put",
            "call_explode", "call_unknown", "close_session", "drop",
            "expire", "flush", "crash", "recover", "open_session",
            "begin_twice", "commit_idle", "op_idle", "awaiting",
            "blocked", "lost"}


# ----------------------------------------------------------------------
# One power-failure path, whatever verb the power fails in
# ----------------------------------------------------------------------

def _in_txn(wire, session):
    wire.ok("begin", session=session, partition=0)
    wire.ok("insert", session=session, table="kv",
            values={"k": 1, "v": "in-flight"})


def _crash_table_op(wire, session, arm):
    wire.ok("begin", session=session, partition=0)
    arm("wal.append.before")
    return wire.call("insert", session=session, table="kv",
                     values={"k": 1, "v": "x"})


def _crash_commit(wire, session, arm):
    _in_txn(wire, session)
    arm("wal.append.before")
    return wire.call("commit", session=session, token="t:1")


def _crash_call(wire, session, arm):
    arm("wal.append.before")
    return wire.call("call", session=session, name="put", partition=0,
                     args=[1, "x"])


def _crash_abort(wire, session, arm):
    _in_txn(wire, session)
    arm("wal.append.before")
    return wire.call("abort", session=session)


def _crash_checkpoint(wire, session, arm):
    _in_txn(wire, session)
    arm("checkpoint.write.before_fsync")
    return wire.call("checkpoint")


def _crash_recover(wire, session, arm):
    _in_txn(wire, session)
    wire.ok("crash")
    arm("recovery.begin")
    return wire.call("recover")


@pytest.mark.parametrize("strike", [
    _crash_table_op, _crash_commit, _crash_call, _crash_abort,
    _crash_checkpoint, _crash_recover])
def test_power_failure_has_one_outcome_in_every_verb(strike):
    config = ServerConfig(engine="inp", partitions=2,
                          group_commit=_GC_PARKED)
    with ServerThread(config, procedures=_registry()) as thread:
        database = thread.server.database
        wire, other = Wire(thread.server.address), \
            Wire(thread.server.address)
        wire.ok("create_table", schema=schema_to_wire(KV))
        session = wire.ok("open_session", name="struck")["session"]
        bystander = other.ok("open_session", name="bystander")["session"]
        other.ok("begin", session=bystander, partition=1)
        other.ok("insert", session=bystander, table="kv",
                 values={"k": 2, "v": "bystander"})

        def arm(point):
            database.arm_faults(FaultPlan([(point, 1)]))

        errors = other.ok("stats")["errors"]
        frame = strike(wire, session, arm)
        database.disarm_faults()

        assert frame["ok"] is False
        assert frame["error"]["code"] == "SimulatedCrash"
        stats = other.ok("stats")
        assert stats["crashed"] is True
        assert stats["errors"] == errors + 1
        assert stats["admission"]["in_flight"] == 0
        assert stats["locks_held"] == []
        assert {s["name"]: s["state"] for s in stats["sessions"]} == {
            "struck": "open", "bystander": "open"}
        # The bystander's transaction died with the power, like the
        # struck session's own.
        assert other.code(
            "commit", session=bystander) == "SessionStateError"
        if strike is _crash_commit:
            status = other.ok("commit_status", token="t:1")
            assert status["status"] == "failed"
        # One recovery later both sessions work again.
        other.ok("recover")
        for conn, sid in ((wire, session), (other, bystander)):
            conn.ok("begin", session=sid, partition=0)
            conn.ok("abort", session=sid)
        wire.close()
        other.close()


# ----------------------------------------------------------------------
# The three places that name verbs cannot drift
# ----------------------------------------------------------------------

def test_verb_tables_agree():
    handlers = set(DatabaseServer._HANDLERS)
    assert RETRYABLE_VERBS <= handlers
    docs = (pathlib.Path(__file__).parents[2] / "docs"
            / "server.md").read_text(encoding="utf-8")
    listing = re.search(r"^Verbs: (.*?)\.$", docs, re.S | re.M).group(1)
    documented = re.findall(r"`(\w+)`", listing)
    assert len(documented) == len(set(documented))
    assert set(documented) == handlers
