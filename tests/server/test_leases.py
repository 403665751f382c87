"""Session leases, load shedding, the crash watchdog, and leak
accounting: whatever way a client vanishes — idle, mid-transaction, or
parked on group commit — the server must release its partition lock
and admission slot, and ``stats`` must prove it."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.client import ReproClient
from repro.core.schema import Column, ColumnType, Schema
from repro.errors import (LeaseExpiredError, RetryAfterError,
                          ServerDisconnected)
from repro.server import GroupCommitConfig, ServerConfig, ServerThread

from .holder import Holder

KV = Schema.build(
    "kv", [Column("k", ColumnType.INT),
           Column("v", ColumnType.STRING, capacity=64)],
    primary_key=["k"])

#: Fast timer backstop so single-session commits return promptly.
_GC = GroupCommitConfig(batch_size=8, max_hold_ns=1e18,
                        max_hold_wall_s=0.005)

#: Huge hold: a commit parked behind a holder stays parked until the
#: holder leaves or an explicit flush.
_GC_PARKED = GroupCommitConfig(batch_size=64, max_hold_ns=1e18,
                               max_hold_wall_s=3600.0)


def _poll(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _no_leaks(stats):
    return (stats["admission"]["in_flight"] == 0
            and stats["admission"]["queue"] == 0
            and stats["locks_held"] == []
            and not stats["sessions"]
            and all(stage["pending"] == 0
                    for stage in stats["group_commit"]))


# ----------------------------------------------------------------------
# Session leases (the reaper)
# ----------------------------------------------------------------------

def test_reaper_expires_idle_in_txn_session():
    """An abandoned in-transaction session is reaped past its lease:
    the transaction aborts, the partition lock and admission slot come
    back, and the owner's next verb gets LeaseExpiredError."""
    config = ServerConfig(engine="nvm-inp", group_commit=_GC,
                          max_inflight=1, session_lease_s=0.2,
                          reaper_interval_s=0.02)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
        zombie_client = ReproClient(host, port)
        zombie_client.connect()
        zombie = zombie_client.session("zombie")
        zombie.begin()
        zombie.insert("kv", {"k": 1, "v": "doomed"})
        # ...and the client goes silent, holding the only slot.
        with ReproClient(host, port) as other:
            assert _poll(lambda: other.stats()["reaper"]["expired"] >= 1)
            stats = other.stats()
            assert stats["admission"]["in_flight"] == 0
            assert stats["locks_held"] == []
            # The freed slot admits new work (max_inflight=1).
            with other.session("heir") as heir:
                heir.begin()
                heir.insert("kv", {"k": 2, "v": "alive"})
                heir.commit()
                heir.begin()
                # The zombie's in-flight insert was aborted with it.
                assert heir.get("kv", 1) is None
                heir.abort()
        with pytest.raises(LeaseExpiredError):
            zombie.commit()
        zombie_client.close()


def test_foreign_connection_cannot_renew_a_lease():
    """A session id only works on the connection that opened it — for
    lease renewal too. Another connection naming the (sequential,
    guessable) id in its frames must not keep an abandoned transaction
    alive, or one client could wedge a partition forever."""
    config = ServerConfig(engine="nvm-inp", group_commit=_GC,
                          session_lease_s=0.3, reaper_interval_s=0.02)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
        victim_client = ReproClient(host, port)
        victim_client.connect()
        victim = victim_client.session("victim")
        victim.begin()                  # ...then idles, holding the lock
        with ReproClient(host, port) as thief:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                thief.call("ping", session=victim.session_id)
                time.sleep(0.05)
            stats = thief.stats()       # right after the last "renewal"
            assert stats["reaper"]["expired"] == 1
            assert stats["locks_held"] == []
            assert stats["admission"]["in_flight"] == 0
        with pytest.raises(LeaseExpiredError):
            victim.commit()
        victim_client.close()


def test_reaper_never_reaps_awaiting_commits():
    """A commit parked on group commit is server-side progress, not
    client idleness: the reaper must leave it alone no matter how
    stale its lease looks."""
    config = ServerConfig(engine="nvm-inp", group_commit=_GC_PARKED,
                          session_lease_s=0.1, reaper_interval_s=0.02)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            done = {}

            def committer():
                with ReproClient(host, port) as c:
                    with c.session("parked") as s:
                        s.begin()
                        s.insert("kv", {"k": 3, "v": "patient"})
                        # Queued behind this transaction: somebody
                        # who could still join the batch.
                        done["holder"] = Holder((host, port))
                        done["txn"] = s.commit()

            t = threading.Thread(target=committer, daemon=True)
            t.start()
            assert _poll(lambda: sum(
                s["pending"] for s in admin.stats()["group_commit"]))
            # The holder's own lease must not lapse meanwhile (its
            # expiry would leave the partition quiet and flush).
            holder = done["holder"]
            holder.granted()
            holder.set_last_seen(thread.server, float("inf"))
            time.sleep(0.4)             # several leases and reaper ticks
            sessions = {s["name"]: s for s in admin.stats()["sessions"]}
            assert sessions["parked"]["awaiting"] is True
            assert admin.stats()["reaper"]["expired"] == 0
            admin.flush()
            t.join(timeout=10.0)
            assert done["txn"] > 0
            holder.close()


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------

def test_full_admission_queue_sheds_with_retry_after():
    """With the queue bounded at zero, a begin that would park is
    refused up front with the server's configured backoff hint."""
    config = ServerConfig(engine="nvm-inp", group_commit=_GC,
                          max_inflight=1, max_admission_queue=0,
                          retry_after_s=0.07)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
        holder_client = ReproClient(host, port)
        holder_client.connect()
        holder = holder_client.session("holder")
        holder.begin()
        try:
            shed_probe = ReproClient(host, port, shed_retries=0)
            shed_probe.connect()
            probe_session = shed_probe.session("probe")
            with pytest.raises(RetryAfterError) as info:
                probe_session.begin()
            assert info.value.retry_after_s == pytest.approx(0.07)
            assert shed_probe.stats()["admission"]["shed"] >= 1
            shed_probe.close()
        finally:
            holder.commit()
            holder_client.close()


def test_client_honors_retry_after_and_succeeds():
    """The default client treats RetryAfterError as backpressure, not
    failure: it backs off with jitter and retries until admitted."""
    config = ServerConfig(engine="nvm-inp", group_commit=_GC,
                          max_inflight=1, max_admission_queue=0,
                          retry_after_s=0.02)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
        holder_client = ReproClient(host, port)
        holder_client.connect()
        holder = holder_client.session("holder")
        holder.begin()
        committed = threading.Event()

        def patient():
            with ReproClient(host, port, jitter_seed=5) as c:
                with c.session("patient") as s:
                    s.begin()           # shed until the holder commits
                    s.insert("kv", {"k": 4, "v": "eventually"})
                    s.commit()
                    committed.set()

        t = threading.Thread(target=patient, daemon=True)
        t.start()
        time.sleep(0.15)
        assert not committed.is_set()
        holder.commit()
        assert committed.wait(timeout=10.0)
        t.join(timeout=10.0)
        assert holder_client.stats()["admission"]["shed"] >= 1
        holder_client.close()


# ----------------------------------------------------------------------
# Crash watchdog
# ----------------------------------------------------------------------

def test_watchdog_auto_recovers_after_a_crash():
    config = ServerConfig(engine="nvm-inp", group_commit=_GC,
                          watchdog_recover_s=0.05,
                          reaper_interval_s=0.02)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            with admin.session("writer") as w:
                w.begin()
                w.insert("kv", {"k": 5, "v": "survivor"})
                w.commit()
            admin.flush()
            assert admin.crash()["crashed"] is True
            assert _poll(lambda: not admin.stats()["crashed"])
            assert admin.stats()["watchdog"]["recoveries"] >= 1
            with admin.session("reader") as r:
                r.begin()
                assert r.get("kv", 5)["v"] == "survivor"
                r.abort()


# ----------------------------------------------------------------------
# Leak accounting across abrupt disconnects
# ----------------------------------------------------------------------

def test_abrupt_disconnect_idle_session_leaks_nothing():
    config = ServerConfig(engine="nvm-inp", group_commit=_GC)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            client = ReproClient(host, port)
            client.connect()
            client.session("vanisher")
            client.close()              # no session close, no goodbye
            assert _poll(lambda: _no_leaks(admin.stats()))


def test_abrupt_disconnect_in_txn_aborts_and_releases():
    config = ServerConfig(engine="nvm-inp", group_commit=_GC,
                          max_inflight=1)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            client = ReproClient(host, port)
            client.connect()
            session = client.session("vanisher")
            session.begin()
            session.insert("kv", {"k": 6, "v": "orphan"})
            client.close()              # dies holding lock + slot
            assert _poll(lambda: _no_leaks(admin.stats()))
            with admin.session("reader") as r:
                r.begin()               # the only slot is free again
                assert r.get("kv", 6) is None   # txn aborted
                r.abort()


def test_abrupt_disconnect_parked_on_group_commit_drains_clean():
    """The nastiest state: the client dies while its commit awaits the
    batch's durable point. The durability waiter must still resolve
    (on the next flush) and every resource must come back."""
    config = ServerConfig(engine="nvm-inp", group_commit=_GC_PARKED)
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            client = ReproClient(host, port, retries=0)
            client.connect()
            outcome = {}

            def committer():
                with client.session("parked") as s:
                    s.begin()
                    s.insert("kv", {"k": 7, "v": "headless"})
                    # Queued behind this transaction: somebody who
                    # could still join the batch.
                    outcome["holder"] = Holder((host, port))
                    try:
                        s.commit()
                    except Exception as exc:
                        outcome["exc"] = exc

            t = threading.Thread(target=committer, daemon=True)
            t.start()
            assert _poll(lambda: sum(
                s["pending"] for s in admin.stats()["group_commit"]))
            client._sock.shutdown(socket.SHUT_RDWR)   # abrupt death
            t.join(timeout=10.0)
            assert isinstance(outcome["exc"], ServerDisconnected)
            admin.flush()               # resolves the headless waiter
            outcome["holder"].close()
            assert _poll(lambda: _no_leaks(admin.stats()))
            client.close()
            # The commit itself was applied: it reached the engine
            # before the client died; only the ack had nowhere to go.
            with admin.session("reader") as r:
                r.begin()
                assert r.get("kv", 7)["v"] == "headless"
                r.abort()
