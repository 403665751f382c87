"""Exactly-once commits: the bounded commit ledger, the
``commit_status`` verb, and the full client retry path — a commit
whose ack the proxy dropped is replayed across a reconnect and applied
exactly once. Also documents, as a regression test, the ambiguity the
tokens close: a tokenless commit retried after a dropped ack cannot
learn its own fate."""

from __future__ import annotations

import json
import random
import threading
import time
from collections import OrderedDict

import pytest

from repro.chaos import FaultProxyThread, NetworkFaultProxy
from repro.client import ReproClient
from repro.core.schema import Column, ColumnType, Schema
from repro.errors import (CrashedError, ProtocolError, RetryAfterError,
                          ServerDisconnected)
from repro.server import (CommitLedger, GroupCommitConfig, ServerConfig,
                          ServerThread)

from .holder import Holder

KV = Schema.build(
    "kv", [Column("k", ColumnType.INT), Column("v", ColumnType.INT)],
    primary_key=["k"])

#: Fast timer backstop so single-session commits return promptly.
_GC = GroupCommitConfig(batch_size=8, max_hold_ns=1e18,
                        max_hold_wall_s=0.005)


# ----------------------------------------------------------------------
# CommitLedger unit behavior
# ----------------------------------------------------------------------

def test_ledger_lifecycle_pending_to_durable():
    ledger = CommitLedger(capacity=4)
    ledger.begin("n:1")
    assert ledger.status("n:1")["status"] == "pending"
    ledger.resolve_durable("n:1", {"txn": 7, "durable": True})
    status = ledger.status("n:1")
    assert status["status"] == "durable"
    assert status["result"]["txn"] == 7


def test_ledger_failed_keeps_the_reason():
    ledger = CommitLedger(capacity=4)
    ledger.begin("n:1")
    ledger.resolve_failed("n:1", "power failed mid-batch")
    status = ledger.status("n:1")
    assert status["status"] == "failed"
    assert "power failed" in status["reason"]


def test_ledger_unrecorded_tokens_are_unknown():
    """Never-recorded = the commit verb never started = certainly not
    applied. Both a fresh seq on a known nonce and a fresh nonce."""
    ledger = CommitLedger(capacity=4)
    ledger.begin("n:1")
    ledger.resolve_durable("n:1", {"txn": 1})
    assert ledger.status("n:2")["status"] == "unknown"
    assert ledger.status("other:9")["status"] == "unknown"


def test_ledger_eviction_is_forgotten_not_unknown():
    """A recorded-but-evicted token must answer ``forgotten`` (genuine
    ambiguity), never ``unknown`` (safe to re-run): the per-nonce
    high-water mark survives entry eviction."""
    ledger = CommitLedger(capacity=2)
    for seq in range(1, 6):
        ledger.begin(f"n:{seq}")
        ledger.resolve_durable(f"n:{seq}", {"txn": seq})
    assert ledger.status("n:1")["status"] == "forgotten"
    assert ledger.status("n:5")["status"] == "durable"
    assert ledger.status("n:99")["status"] == "unknown"
    assert ledger.stats()["evicted"] == 3


def test_ledger_never_evicts_pending_entries():
    """A pending entry's commit coroutine is still running and will
    resolve it; eviction only ages out completed entries."""
    ledger = CommitLedger(capacity=1)
    ledger.begin("n:1")                 # stays pending
    for seq in range(2, 5):
        ledger.begin(f"n:{seq}")
        ledger.resolve_durable(f"n:{seq}", {"txn": seq})
    assert ledger.status("n:1")["status"] == "pending"
    assert ledger.stats()["pending"] == 1


def test_ledger_evicted_nonce_window_degrades_to_forgotten():
    """Once the nonce-tracking window overflows, an unseen nonce can
    no longer prove ``unknown`` — the safe answer is ``forgotten``."""
    ledger = CommitLedger(capacity=1, nonce_capacity=2)
    for nonce in ("a", "b", "c"):
        ledger.begin(f"{nonce}:1")
        ledger.resolve_durable(f"{nonce}:1", {"txn": 1})
    assert ledger.status("a:1")["status"] == "forgotten"
    assert ledger.status("never-seen:1")["status"] == "forgotten"


def test_ledger_rejects_malformed_tokens():
    ledger = CommitLedger()
    for bad in ("", "noseq", ":1", "n:x"):
        with pytest.raises(ProtocolError):
            ledger.status(bad)
    ledger.begin("n:1")
    with pytest.raises(ProtocolError):
        ledger.begin("n:1")             # duplicate begin


class _ScanningLedger(CommitLedger):
    """The reference: eviction as it was before the ledger kept a
    pending counter — count the completed entries by scanning all of
    them, then walk a copy of the keys."""

    def _evict(self) -> None:
        completed = sum(1 for entry in self._entries.values()
                        if entry.status != "pending")
        if completed <= self._capacity:
            return
        for token in list(self._entries):
            if completed <= self._capacity:
                break
            if self._entries[token].status != "pending":
                del self._entries[token]
                self.evicted += 1
                completed -= 1


def test_ledger_counts_like_the_scan_it_replaced():
    """A long random history, some commits left pending for long
    stretches: the same tokens survive in the same order, the same
    number were evicted, every probe gets the same answer, and the
    pending counter is the brute-force count at every step."""
    rng = random.Random(0x1ED6E2)
    ledgers = (CommitLedger(capacity=16, nonce_capacity=4),
               _ScanningLedger(capacity=16, nonce_capacity=4))
    seqs = dict.fromkeys("abcdef", 0)
    pending, stuck, issued = [], [], []
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.40 or not (pending or stuck):
            nonce = rng.choice(sorted(seqs))
            seqs[nonce] += 1
            token = f"{nonce}:{seqs[nonce]}"
            issued.append(token)
            (stuck if rng.random() < 0.1 else pending).append(token)
            for ledger in ledgers:
                ledger.begin(token)
        elif roll < 0.80:
            # The stuck ones wait at the front of the ledger while
            # hundreds of later commits complete behind them.
            source = stuck if stuck and (not pending
                                         or rng.random() < 0.03) else pending
            token = source.pop(rng.randrange(len(source)))
            durable = rng.random() < 0.8
            for ledger in ledgers:
                if durable:
                    ledger.resolve_durable(token, {"txn": len(issued)})
                else:
                    ledger.resolve_failed(token, "power failed")
        else:
            token = rng.choice(issued + ["zz:1", "a:999999"])
            answers = [ledger.status(token) for ledger in ledgers]
            assert answers[0] == answers[1]
            found = [ledger.lookup(token) for ledger in ledgers]
            assert (found[0] is None) == (found[1] is None)
        new, reference = ledgers
        assert list(new._entries) == list(reference._entries)
        assert [e.status for e in new._entries.values()] \
            == [e.status for e in reference._entries.values()]
        assert new.stats() == dict(reference.stats(), pending=sum(
            entry.status == "pending"
            for entry in new._entries.values()))
        assert new.stats()["pending"] == len(pending) + len(stuck)
    assert new.evicted > 500 and stuck


class _SteppedDict(OrderedDict):
    """An OrderedDict that counts every step anybody iterates it."""

    steps = 0

    def _stepping(self, iterator):
        for item in iterator:
            self.steps += 1
            yield item

    def __iter__(self):
        return self._stepping(super().__iter__())

    def keys(self):
        return self._stepping(super().keys())

    def values(self):
        return self._stepping(super().values())

    def items(self):
        return self._stepping(super().items())


def test_ledger_eviction_walks_only_what_it_evicts():
    """At the server's capacity a commit's bookkeeping must not grow
    with the ledger: one eviction looks at the entries it evicts and
    the pending ones ahead of them, nothing more."""
    ledger = CommitLedger(capacity=4096)
    entries = ledger._entries = _SteppedDict()
    for seq in range(3):                # three commits that never end
        ledger.begin(f"parked:{seq}")
    for seq in range(20_000):
        token = f"n:{seq}"
        ledger.begin(token)
        before, evicted = entries.steps, ledger.evicted
        ledger.resolve_durable(token, {"txn": seq})
        assert entries.steps - before \
            <= (ledger.evicted - evicted) + ledger.stats()["pending"] + 1
        assert ledger.stats()["pending"] == 3
    assert ledger.evicted == 20_000 - 4096
    assert ledger.status("parked:0")["status"] == "pending"
    assert ledger.status("n:0")["status"] == "forgotten"


# ----------------------------------------------------------------------
# The commit_status verb and server-side token replay
# ----------------------------------------------------------------------

@pytest.fixture()
def server():
    config = ServerConfig(engine="nvm-inp", group_commit=_GC)
    with ServerThread(config) as thread:
        yield thread.server


def _seed(client, key=1, value=0):
    client.create_table(KV)
    with client.session("seed") as session:
        session.begin()
        session.insert("kv", {"k": key, "v": value})
        session.commit()


def test_commit_status_verb_reports_token_fate(server):
    with ReproClient(*server.address) as client:
        _seed(client)
        token = client.commit_token()
        assert client.commit_status(token)["status"] == "unknown"
        session = client.session("writer")
        session.begin()
        session.update("kv", 1, {"v": 1})
        txn = session.commit(token=token)
        status = client.commit_status(token)
        assert status["status"] == "durable"
        assert status["result"]["txn"] == txn
        session.close()


def test_replayed_commit_token_answers_from_the_ledger(server):
    """A second ``commit`` frame with the same token returns the
    recorded result without touching the engine."""
    with ReproClient(*server.address) as client:
        _seed(client)
        session = client.session("writer")
        session.begin()
        session.update("kv", 1, {"v": 1})
        token = client.commit_token()
        first = client.call("commit", session=session.session_id,
                            token=token)
        replay = client.call("commit", session=session.session_id,
                             token=token)
        assert replay == first
        session.begin()
        assert session.get("kv", 1)["v"] == 1   # applied exactly once
        session.abort()
        session.close()
        ledger = client.stats()["ledger"]
        assert ledger["dedup_hits"] >= 1
        assert ledger["recorded"] >= 1


def test_commit_lost_to_a_crash_resolves_failed():
    """A tokened commit parked on group commit when the power fails is
    recorded ``failed`` — a retry gets CrashedError, never a silent
    re-run, and ``commit_status`` agrees."""
    config = ServerConfig(
        engine="inp",
        group_commit=GroupCommitConfig(batch_size=64, max_hold_ns=1e18,
                                       max_hold_wall_s=3600.0))
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            outcome = {}

            def commit_then_lose():
                with ReproClient(host, port) as c:
                    token = c.commit_token()
                    outcome["token"] = token
                    with c.session("loser") as s:
                        s.begin()
                        s.insert("kv", {"k": 5, "v": 1})
                        # Queued behind this transaction: somebody
                        # who could still join the batch.
                        outcome["holder"] = Holder((host, port))
                        try:
                            s.commit(token=token)
                        except Exception as exc:
                            outcome["exc"] = exc

            t = threading.Thread(target=commit_then_lose, daemon=True)
            t.start()
            for _ in range(200):
                if sum(s["pending"] for s in
                       admin.stats()["group_commit"]):
                    break
                time.sleep(0.02)
            assert admin.crash()["lost_commits"] == 1
            t.join(timeout=10.0)
            assert isinstance(outcome["exc"], CrashedError)
            admin.recover()
            status = admin.commit_status(outcome["token"])
            assert status["status"] == "failed"
            outcome["holder"].close()


# ----------------------------------------------------------------------
# The acceptance test: ack dropped by the proxy, retried, applied once
# ----------------------------------------------------------------------

class _AckDropProxy(NetworkFaultProxy):
    """Deterministic fault plan: swallow the first server->client
    response to a ``commit`` request, forward everything else."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._commit_ids = set()
        self.dropped_acks = 0

    async def _apply(self, frame, writer, rng):
        payload = json.loads(frame[4:])
        if payload.get("verb") == "commit":
            self._commit_ids.add(payload.get("id"))
        elif payload.get("id") in self._commit_ids \
                and self.dropped_acks == 0:
            self.dropped_acks += 1
            self.counters["drop"] += 1
            return False
        writer.write(frame)
        self.counters["forward"] += 1
        return False


def _ack_drop_proxy(host, port):
    thread = FaultProxyThread(host, port)
    thread.proxy = _AckDropProxy(host, port)
    return thread


def test_dropped_commit_ack_is_applied_exactly_once(server):
    """The satellite acceptance test: the client commits through a
    proxy that eats the ack, times out, reconnects, and replays the
    commit with its token — the server answers from the ledger and the
    increment lands exactly once."""
    host, port = server.address
    with ReproClient(host, port) as admin:
        _seed(admin)
        with _ack_drop_proxy(host, port) as proxy:
            client = ReproClient(*proxy.proxy.address, timeout=0.3,
                                 retries=6, retry_backoff_s=0.01,
                                 jitter_seed=7)
            client.connect()
            session = client.session("retrier")
            session.begin()
            row = session.get("kv", 1)
            session.update("kv", 1, {"v": row["v"] + 1})
            assert session.commit() > 0     # survives the dropped ack
            assert proxy.proxy.dropped_acks == 1
            assert client.reconnects >= 2   # connect + the retry
            client.close()
        with admin.session("check") as check:
            check.begin()
            assert check.get("kv", 1)["v"] == 1     # exactly once
            check.abort()
        assert admin.stats()["ledger"]["dedup_hits"] >= 1


def test_tokenless_commit_ack_drop_is_ambiguous(server):
    """Regression documentation: before commit tokens, a dropped ack
    left the client unable to learn the commit's fate — the bare retry
    lands on a fresh connection with no session and dies with
    ProtocolError, while the transaction WAS applied. Tokens
    (the test above) close exactly this window."""
    host, port = server.address
    with ReproClient(host, port) as admin:
        _seed(admin)
        with _ack_drop_proxy(host, port) as proxy:
            client = ReproClient(*proxy.proxy.address, timeout=0.3,
                                 retries=6, retry_backoff_s=0.01,
                                 jitter_seed=7)
            client.connect()
            session = client.session("legacy")
            session.begin()
            row = session.get("kv", 1)
            session.update("kv", 1, {"v": row["v"] + 1})
            with pytest.raises((ProtocolError, ServerDisconnected)):
                client.call("commit", session=session.session_id)
            assert proxy.proxy.dropped_acks == 1
            client.close()
        with admin.session("check") as check:
            check.begin()
            # The commit the client could not confirm was applied.
            assert check.get("kv", 1)["v"] == 1
            check.abort()


def test_pending_replay_answers_retry_after():
    """A commit replayed while the original is still parked on group
    commit gets a RetryAfterError hint, not a hang and not a re-run."""
    config = ServerConfig(
        engine="nvm-inp",
        group_commit=GroupCommitConfig(batch_size=64, max_hold_ns=1e18,
                                       max_hold_wall_s=3600.0))
    with ServerThread(config) as thread:
        host, port = thread.server.address
        with ReproClient(host, port) as admin:
            admin.create_table(KV)
            token_box = {}

            def committer():
                with ReproClient(host, port) as c:
                    token_box["token"] = token = c.commit_token()
                    with c.session("parked") as s:
                        s.begin()
                        s.insert("kv", {"k": 9, "v": 9})
                        # Queued behind this transaction: somebody
                        # who could still join the batch.
                        token_box["holder"] = Holder((host, port))
                        try:
                            s.commit(token=token)
                        except Exception:
                            pass

            t = threading.Thread(target=committer, daemon=True)
            t.start()
            for _ in range(200):
                if sum(s["pending"] for s in
                       admin.stats()["group_commit"]):
                    break
                time.sleep(0.02)
            with pytest.raises(RetryAfterError):
                # shed_retries=0 surfaces the hint instead of honoring it
                probe = ReproClient(host, port, shed_retries=0)
                probe.connect()
                try:
                    probe.call("commit", session=0,
                               token=token_box["token"])
                finally:
                    probe.close()
            assert admin.commit_status(
                token_box["token"])["status"] == "pending"
            admin.flush()
            t.join(timeout=10.0)
            token_box["holder"].close()
