"""Synchronous client for the repro database server.

A :class:`ReproClient` owns one TCP connection and speaks the
length-prefixed JSON protocol of :mod:`repro.server.protocol`. Server-
side errors come back as structured error frames and are re-raised
here as the same exception classes (:mod:`repro.errors`), so remote
code reads like in-process code::

    with ReproClient(host, port) as client:
        client.create_table(schema)
        with client.session("worker-0") as session:
            session.begin()
            session.insert("kv", {"k": 1, "v": "hello"})
            session.commit()        # returns once durable

**Retries.** A transient disconnect (server restart, dropped socket)
is retried transparently — reconnect with full-jitter backoff, replay
the frame — but only for verbs that are safe to repeat. ``commit`` is
one of them: every :meth:`ClientSession.commit` carries a
client-generated **commit token**, and the server's bounded commit
ledger resolves a replayed token against the recorded outcome instead
of re-running the transaction, closing the classic ack-lost ambiguity
window (exactly-once commits). Other in-transaction verbs are *not*
replayed: the server closed the session with the connection, so the
client raises :class:`~repro.errors.ServerDisconnected` and the caller
decides (the closed-loop driver opens a fresh session and carries on).

**Degradation.** A server shedding load answers with
:class:`~repro.errors.RetryAfterError` *before doing any work*; the
client honors the hint with jittered sleeps and retries (bounded by
``shed_retries``). Any call may carry a ``deadline`` (seconds of total
wall time including backoff); once spent, the retry loop raises
:class:`~repro.errors.DeadlineExceededError` instead of sleeping.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
import uuid
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..core.schema import Schema
from ..errors import (CommitAmbiguousError, CrashedError,
                      DeadlineExceededError, ProtocolError,
                      RetryAfterError, ServerDisconnected)
from ..server.protocol import (MAX_FRAME_BYTES, FrameDecoder,
                               encode_frame, error_to_exception,
                               schema_from_wire, schema_to_wire,
                               unwire_value, wire_value)

__all__ = ["ReproClient", "ClientSession", "RETRYABLE_VERBS"]

#: Verbs safe to replay on a fresh connection after a transient
#: disconnect: they carry no per-connection session state and are
#: idempotent (or, like ``flush``/``recover``, converge to the same
#: state when repeated). ``commit`` joined the set when it grew
#: tokens — the server's commit ledger answers a replayed token from
#: its record, so the engine never sees the retry.
RETRYABLE_VERBS = frozenset(
    {"hello", "ping", "stats", "procedures", "schema",
     "flush", "checkpoint", "recover", "commit", "commit_status"})


class ReproClient:
    """One connection to a :class:`~repro.server.DatabaseServer`."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 30.0,
                 retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 shed_retries: int = 16,
                 deadline_s: Optional[float] = None,
                 jitter_seed: Optional[int] = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        #: RetryAfterError (load-shed) answers honored before giving up.
        self.shed_retries = shed_retries
        #: Default per-call wall-clock budget (None = unbounded).
        self.deadline_s = deadline_s
        self.max_frame_bytes = max_frame_bytes
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self._pending: Deque[Dict[str, Any]] = deque()
        self._request_ids = iter(range(1, 2 ** 62))
        self._rng = random.Random(jitter_seed)
        #: Nonce naming this client lifetime in commit tokens.
        self._nonce = uuid.uuid4().hex[:16]
        self._commit_seq = itertools.count(1)
        #: Sockets opened over this client's lifetime (first connect
        #: included); a change across a call means it reconnected.
        self.reconnects = 0
        self.server_info: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self) -> Dict[str, Any]:
        """Connect (with retries) and handshake; returns the server's
        ``hello`` banner."""
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                self._open_socket()
                self.server_info = self.call("hello")
                return self.server_info
            except (ConnectionError, OSError, ServerDisconnected) as exc:
                last_error = exc
                self._drop_socket()
                if attempt < self.retries:
                    time.sleep(self._backoff(attempt))
        raise ServerDisconnected(
            f"could not connect to {self.host}:{self.port}: {last_error}")

    def _open_socket(self) -> None:
        self._drop_socket()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        self._pending = deque()
        self.reconnects += 1

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        self._drop_socket()

    def __enter__(self) -> "ReproClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------

    def call(self, verb: str, deadline: Optional[float] = None,
             **args: Any) -> Any:
        """Send one request and wait for its response; server errors
        re-raise as their :mod:`repro.errors` class.

        ``deadline`` caps this call's total wall time (sends, retries,
        and backoff sleeps); past it the retry loop raises
        :class:`~repro.errors.DeadlineExceededError` instead of
        sleeping again. Defaults to the client-wide ``deadline_s``.
        """
        retryable = verb in RETRYABLE_VERBS
        if deadline is None:
            deadline = self.deadline_s
        start = time.monotonic()
        attempt = 0             # disconnect retries spent
        sheds = 0               # RetryAfterError answers honored
        while True:
            if self._sock is None:
                # Reconnecting before anything was sent is always safe,
                # even for non-retryable verbs.
                self._open_socket()
            request_id = next(self._request_ids)
            frame = encode_frame(
                {"id": request_id, "verb": verb, "args": args},
                max_frame_bytes=self.max_frame_bytes)
            try:
                self._sock.sendall(frame)
                payload = self._read_frame()
                # A response for an older request id is the echo of a
                # duplicated frame (fault injection); skip to ours.
                while payload.get("id") is not None \
                        and payload.get("id") != request_id:
                    payload = self._read_frame()
            except (ConnectionError, OSError) as exc:
                self._drop_socket()
                if not retryable or attempt >= self.retries:
                    raise ServerDisconnected(
                        f"connection to {self.host}:{self.port} lost "
                        f"during {verb!r}: {exc}") from None
                self._retry_sleep(self._backoff(attempt), start,
                                  deadline, verb, exc)
                attempt += 1
                continue
            try:
                return self._unpack(payload, request_id, verb)
            except RetryAfterError as exc:
                # The server shed the request *before doing any work*,
                # so repeating it is safe for every verb. Full jitter
                # around the server's hint spreads the retry herd.
                if sheds >= self.shed_retries:
                    raise
                self._retry_sleep(
                    self._rng.uniform(0, exc.retry_after_s * 2),
                    start, deadline, verb, exc)
                sheds += 1

    def _backoff(self, attempt: int) -> float:
        """Full-jitter exponential backoff: uniform over [0, cap) so
        simultaneous retriers decorrelate instead of thundering back
        in lockstep."""
        return self._rng.uniform(0, self.retry_backoff_s * 2 ** attempt)

    def _retry_sleep(self, seconds: float, start: float,
                     deadline: Optional[float], verb: str,
                     cause: Exception) -> None:
        """Sleep before a retry — unless that would overrun the call's
        deadline, in which case give up now."""
        if deadline is not None:
            remaining = deadline - (time.monotonic() - start)
            if remaining <= seconds:
                raise DeadlineExceededError(
                    f"{verb!r} exceeded its {deadline:g}s deadline: "
                    f"{cause}") from cause
        time.sleep(seconds)

    def _read_frame(self) -> Dict[str, Any]:
        while not self._pending:
            data = self._sock.recv(65536)
            try:
                if not data:
                    self._decoder.eof()  # raises on a truncated frame
                    raise ConnectionError(
                        "server closed the connection")
                self._pending.extend(self._decoder.feed(data))
            except ProtocolError as exc:
                # A corrupt byte stream cannot be resynchronized; treat
                # it as a dead connection so the retry machinery (and
                # commit tokens) take over.
                raise ConnectionError(
                    f"unrecoverable byte stream: {exc}") from None
        return self._pending.popleft()

    @staticmethod
    def _unpack(payload: Dict[str, Any], request_id: int,
                verb: str) -> Any:
        if payload.get("ok"):
            if payload.get("id") != request_id:
                raise ProtocolError(
                    f"response id {payload.get('id')!r} does not match "
                    f"request id {request_id}")
            return payload.get("result")
        raise error_to_exception(payload.get("error"))

    # ------------------------------------------------------------------
    # Convenience surface
    # ------------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def create_table(self, schema: Schema) -> None:
        self.call("create_table", schema=schema_to_wire(schema))

    def schema(self, table: str) -> Schema:
        return schema_from_wire(self.call("schema", table=table)["schema"])

    def procedures(self) -> List[str]:
        return list(self.call("procedures")["procedures"])

    def session(self, name: str = "") -> "ClientSession":
        result = self.call("open_session", name=name)
        return ClientSession(self, result["session"], result["name"])

    def flush(self) -> int:
        return self.call("flush")["flushed"]

    def checkpoint(self) -> None:
        self.call("checkpoint")

    def crash(self) -> Dict[str, Any]:
        """Simulated power failure; returns how many logically-
        committed transactions it caught before their durable point."""
        return self.call("crash")

    def recover(self) -> float:
        return self.call("recover")["seconds"]

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def commit_token(self) -> str:
        """A fresh commit token (``"<nonce>:<seq>"``): unique per
        commit attempt *across reconnects* of this client."""
        return f"{self._nonce}:{next(self._commit_seq)}"

    def commit_status(self, token: str,
                      deadline: Optional[float] = None
                      ) -> Dict[str, Any]:
        """Ask the server's commit ledger about a token's fate:
        ``pending`` / ``durable`` / ``failed`` / ``unknown`` /
        ``forgotten``."""
        return self.call("commit_status", deadline=deadline,
                         token=token)

    def shutdown_server(self) -> None:
        self.call("shutdown")


class ClientSession:
    """A remote session: the same begin/op/commit/abort lifecycle as
    :class:`repro.core.session.Session`, one round trip per verb."""

    def __init__(self, client: ReproClient, session_id: int,
                 name: str) -> None:
        self.client = client
        self.session_id = session_id
        self.name = name
        self._closed = False

    def _call(self, verb: str, **args: Any) -> Any:
        return self.client.call(verb, session=self.session_id, **args)

    # -- lifecycle ------------------------------------------------------

    def begin(self, partition: int = 0) -> int:
        return self._call("begin", partition=partition)["txn"]

    def commit(self, deadline: Optional[float] = None,
               token: Optional[str] = None) -> int:
        """Commit; returns once the transaction is *durable* (its
        group-commit batch flushed).

        Exactly-once: the request carries a commit token, so a commit
        replayed across a reconnect resolves against the server's
        ledger instead of re-running. If the replay lands on a fresh
        connection whose session died with the old one, the token's
        recorded fate decides the answer: never recorded → the commit
        certainly never ran (:class:`~repro.errors.ServerDisconnected`,
        safe to re-run the transaction); recorded-but-evicted →
        :class:`~repro.errors.CommitAmbiguousError` (reconcile from
        data).

        Pass ``token`` (from :meth:`ReproClient.commit_token`) to keep
        a handle on the commit's fate — e.g. for a later
        ``commit_status`` reconciliation, as the chaos oracle does.
        """
        if token is None:
            token = self.client.commit_token()
        reconnects = self.client.reconnects
        try:
            return self.client.call("commit", deadline=deadline,
                                    session=self.session_id,
                                    token=token)["txn"]
        except ProtocolError as exc:
            if self.client.reconnects == reconnects:
                raise           # a real protocol bug, not a replay
            return self._resolve_token(token, exc, deadline)

    def _resolve_token(self, token: str, cause: Exception,
                       deadline: Optional[float]) -> int:
        """A replayed commit hit a connection with no session: consult
        the ledger (``commit_status``) for the token's fate."""
        while True:
            status = self.client.commit_status(token, deadline=deadline)
            fate = status.get("status")
            if fate != "pending":
                break
            time.sleep(self.client.retry_backoff_s)
        if fate == "durable":
            return status["result"]["txn"]
        if fate == "failed":
            raise CrashedError(
                f"commit not durable: {status.get('reason')}") from cause
        if fate == "unknown":
            raise ServerDisconnected(
                "connection lost before the commit reached the server "
                "(transaction was not applied)") from cause
        raise CommitAmbiguousError(
            f"commit {token} may or may not have been applied: "
            f"{status.get('reason')}") from cause

    def abort(self) -> int:
        return self._call("abort")["txn"]

    def call(self, name: str, *args: Any, partition: int = 0) -> Any:
        """One-shot: run the registered stored procedure ``name`` as a
        single transaction on ``partition``."""
        result = self._call("call", name=name,
                            args=[wire_value(arg) for arg in args],
                            partition=partition)
        return unwire_value(result["result"])

    def close(self) -> None:
        if self._closed or not self.client.connected:
            self._closed = True
            return
        try:
            self._call("close_session")
        except ServerDisconnected:
            pass
        self._closed = True

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- table operations (inside the active transaction) ---------------

    def insert(self, table: str, values: Dict[str, Any]) -> None:
        self._call("insert", table=table, values=wire_value(values))

    def update(self, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        self._call("update", table=table, key=wire_value(key),
                   changes=wire_value(changes))

    def delete(self, table: str, key: Any) -> None:
        self._call("delete", table=table, key=wire_value(key))

    def get(self, table: str, key: Any) -> Optional[Dict[str, Any]]:
        return unwire_value(
            self._call("get", table=table, key=wire_value(key))["row"])

    def get_secondary(self, table: str, index: str,
                      key: Any) -> List[Any]:
        return unwire_value(self._call(
            "get_secondary", table=table, index=index,
            key=wire_value(key))["keys"])

    def scan(self, table: str, lo: Any = None, hi: Any = None
             ) -> List[Tuple[Any, Dict[str, Any]]]:
        rows = self._call("scan", table=table, lo=wire_value(lo),
                          hi=wire_value(hi))["rows"]
        return [(unwire_value(key), unwire_value(row))
                for key, row in rows]
