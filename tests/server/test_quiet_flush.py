"""A durable ack waits for work, not for a timer.

Group commit holds a batch open only while somebody could still join
it. The server counts, per partition, the sessions that hold or are
queued on the execution lock; the release that leaves none flushes
whatever is parked (reason ``quiet``). Every server here has its wall
timer at an hour and its simulated hold at infinity, so a commit that
comes back at all came back through the trigger under test.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.client import ReproClient
from repro.fault.injector import FaultPlan
from repro.server import ServerConfig, ServerThread
from repro.server.groupcommit import GroupCommitStage
from repro.server.protocol import schema_to_wire

from .holder import Holder
from .test_grants import _GC_PARKED, KV, Wire, _poll


def _server(engine="nvm-inp", group_commit=_GC_PARKED, **config):
    return ServerThread(ServerConfig(engine=engine,
                                     group_commit=group_commit, **config))


def _writer(address, name, key):
    """A raw connection with an open transaction that wrote ``key``."""
    wire = Wire(address)
    session = wire.ok("open_session", name=name)["session"]
    wire.ok("begin", session=session, partition=0)
    wire.ok("insert", session=session, table="kv",
            values={"k": key, "v": name})
    return wire, session


def _stage(admin):
    return admin.ok("stats")["group_commit"][0]


def test_lone_commit_is_acknowledged_at_once():
    with _server() as thread, \
            ReproClient(*thread.server.address) as client:
        client.create_table(KV)
        assert client.server_info["group_commit"]["max_hold_wall_s"] \
            == 3600.0
        started = time.monotonic()
        with client.session("lone") as session:
            session.begin()
            session.insert("kv", {"k": 1, "v": "alone"})
            session.commit()
        assert time.monotonic() - started < 1.0
        stage = client.stats()["group_commit"][0]
        assert stage["flush_reasons"] == {"quiet": 1}
        assert stage["pending"] == 0


def test_commit_parks_behind_a_holder_and_leaves_with_it():
    """The holder's own commit is the release that leaves the
    partition quiet: one batch, both commits in it, both durable."""
    with _server(engine="inp") as thread:
        address = thread.server.address
        admin = Wire(address)
        admin.ok("create_table", schema=schema_to_wire(KV))
        a, a_session = _writer(address, "a", 1)
        holder = Holder(address)
        a.send("commit", session=a_session)
        holder.granted()
        assert _stage(admin)["pending"] == 1
        holder.ok("insert", session=holder.session, table="kv",
                  values={"k": 2, "v": "holder"})
        assert holder.ok("commit", session=holder.session)["durable"]
        assert a.recv()["result"]["durable"] is True
        stage = _stage(admin)
        assert (stage["batches"], stage["max_batch"]) == (1, 2)
        assert stage["flush_reasons"] == {"quiet": 1}
        admin.ok("crash")
        admin.ok("recover")
        a.ok("begin", session=a_session, partition=0)
        rows = a.ok("scan", session=a_session, table="kv",
                    lo=None, hi=None)["rows"]
        assert [key for key, _ in rows] == [1, 2]
        for wire in (a, holder, admin):
            wire.close()


def _abort(thread, holder):
    holder.ok("abort", session=holder.session)


def _disconnect(thread, holder):
    holder.close()


def _lease_expiry(thread, holder):
    holder.set_last_seen(thread.server, -1e9)


@pytest.mark.parametrize("leave", [_abort, _disconnect, _lease_expiry])
def test_parked_commit_is_released_however_the_last_holder_leaves(leave):
    with _server(session_lease_s=60.0, reaper_interval_s=0.01) as thread:
        address = thread.server.address
        admin = Wire(address)
        admin.ok("create_table", schema=schema_to_wire(KV))
        a, a_session = _writer(address, "a", 1)
        holder = Holder(address)
        a.send("commit", session=a_session)
        holder.granted()
        assert _stage(admin)["pending"] == 1
        leave(thread, holder)
        assert a.recv()["result"]["durable"] is True
        stats = admin.ok("stats")
        assert stats["group_commit"][0]["flush_reasons"] == {"quiet": 1}
        assert _poll(lambda: admin.ok("stats")["locks_held"] == [])
        assert admin.ok("stats")["admission"]["in_flight"] == 0
        for wire in (a, holder, admin):
            wire.close()


def test_parked_commits_do_not_starve_admission():
    """Two parked commits used to sit on both admission slots until
    the timer fired while the third client's ``begin`` waited for one:
    a begin waiting for a slot cannot join the batch, so it does not
    keep it open either."""
    txns, done, gate = 20, {}, threading.Event()
    with _server(max_inflight=2) as thread:
        host, port = thread.server.address

        def client(index):
            with ReproClient(host, port) as c, \
                    c.session(f"client-{index}") as session:
                for n in range(txns):
                    session.begin()
                    session.insert("kv", {"k": index * 1000 + n,
                                          "v": "x"})
                    if (index, n) == (0, 0):
                        gate.wait(timeout=10.0)
                    session.commit()
            done[index] = True

        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            threads = [threading.Thread(target=client, args=(index,),
                                        daemon=True)
                       for index in range(3)]
            threads[0].start()
            assert _poll(lambda: admin.stats()["locks_held"] == [0])
            for t in threads[1:]:
                t.start()
            # One holds the lock, one is queued on it, one waits for
            # a slot: saturated before anybody commits.
            assert _poll(lambda: [admin.stats()["admission"][key] for key
                                  in ("in_flight", "queue")] == [2, 1])
            gate.set()
            for t in threads:
                t.join(timeout=30.0)
            assert done == {0: True, 1: True, 2: True}
            stats = admin.stats()
            assert stats["admission"]["waits"] > 0
            assert stats["committed_txns"] == 3 * txns
            assert "timer" not in stats["group_commit"][0]["flush_reasons"]


@pytest.mark.parametrize("reason, tunable", [
    ("size", dict(batch_size=2)),
    ("hold", dict(max_hold_ns=1.0)),
])
def test_size_and_hold_still_fire_through_a_real_server(reason, tunable):
    """Two committers in front of a holder: the partition is never
    quiet, so the second enqueue trips the configured trigger."""
    with _server(group_commit=dataclasses.replace(
            _GC_PARKED, **tunable)) as thread:
        address = thread.server.address
        admin = Wire(address)
        admin.ok("create_table", schema=schema_to_wire(KV))
        a, a_session = _writer(address, "a", 1)
        b = Holder(address, name="b")
        holder = Holder(address)
        a.send("commit", session=a_session)
        b.granted()
        assert _stage(admin)["pending"] == 1
        b.ok("insert", session=b.session, table="kv",
             values={"k": 2, "v": "b"})
        assert b.ok("commit", session=b.session)["durable"] is True
        assert a.recv()["result"]["durable"] is True
        holder.granted()
        stage = _stage(admin)
        assert stage["flush_reasons"] == {reason: 1}
        assert stage["max_batch"] == 2
        for wire in (a, b, holder, admin):
            wire.close()


def test_power_failure_in_the_quiet_flush_loses_the_whole_batch():
    with _server(engine="inp") as thread:
        address = thread.server.address
        database = thread.server.database
        admin = Wire(address)
        admin.ok("create_table", schema=schema_to_wire(KV))
        a, a_session = _writer(address, "a", 1)
        holder = Holder(address)
        a.send("commit", session=a_session, token="a:1")
        holder.granted()
        holder.ok("insert", session=holder.session, table="kv",
                  values={"k": 2, "v": "holder"})
        database.arm_faults(FaultPlan([("wal.fsync.before", 1)]))
        assert holder.code("commit", session=holder.session,
                           token="h:1") == "CrashedError"
        database.disarm_faults()
        assert a.recv()["error"]["code"] == "CrashedError"
        for token in ("a:1", "h:1"):
            assert admin.ok("commit_status",
                            token=token)["status"] == "failed"
        stats = admin.ok("stats")
        assert stats["crashed"] is True
        assert stats["locks_held"] == []
        assert stats["admission"]["in_flight"] == 0
        assert stats["group_commit"][0]["pending"] == 0
        assert stats["group_commit"][0]["flush_reasons"] == {}
        admin.ok("recover")
        a.ok("begin", session=a_session, partition=0)
        assert a.ok("scan", session=a_session, table="kv",
                    lo=None, hi=None)["rows"] == []
        for wire in (a, holder, admin):
            wire.close()


def test_quiet_with_nothing_parked_touches_no_engine():
    """An abort or a read-only commit leaves the partition quiet with
    no batch open: no durable point runs, so simulated time and the
    engine's call sequence are what they were."""
    class _Partition:
        partition_id = 0

        class engine:
            @staticmethod
            def flush_commits():
                raise AssertionError("nothing to make durable")

    stage = GroupCommitStage(_Partition(), _GC_PARKED, loop=None)
    stage.quiet()
    assert stage.stats()["batches"] == 0
