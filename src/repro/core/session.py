"""Explicit transaction sessions over the database.

A :class:`Session` is the unit of client state in the testbed's
coordinator: it owns at most one active transaction at a time and walks
a small lifecycle state machine::

    open ──begin()──► active-txn ──commit()/abort()──► open
      │                                                  │
      └───────────────────close()◄───────────────────────┘

The same session object drives the database in-process (``with
db.session() as s: ...``) and backs one remote connection in the
network tier (``repro.server``). It runs the same begin / procedure /
commit sequence against the partition that the one-shot
:meth:`Database.execute <repro.core.database.Database.execute>` →
:meth:`Partition.execute <repro.core.partition.Partition.execute>` path
does, spread over explicit verbs.

Error taxonomy: a closed database raises
:class:`~repro.errors.DatabaseClosedError`, a crashed (not yet
recovered) database raises :class:`~repro.errors.CrashedError`, a verb
called in the wrong session state raises
:class:`~repro.errors.SessionStateError`, and anything on a closed
session raises :class:`~repro.errors.SessionClosedError`.

A power failure has one path (:meth:`Session._guarded`): a
:class:`~repro.errors.SimulatedCrash` escaping a session verb has
already crashed the whole database, exactly like the one-shot path,
and :meth:`Database.crash <repro.core.database.Database.crash>` ended
the transaction of this and every other open session — a verb after a
crash finds none (:class:`~repro.errors.SessionStateError`).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (LeaseExpiredError, SessionClosedError,
                      SessionStateError, SimulatedCrash)
from .executor import TransactionContext
from .partition import Partition, StoredProcedure

__all__ = ["Session", "SessionState"]


class SessionState(enum.Enum):
    """Lifecycle states of a :class:`Session` (see module docstring)."""

    OPEN = "open"
    ACTIVE = "active-txn"
    CLOSED = "closed"


class Session:
    """One client's transaction stream against a database.

    Sessions are handed out by :meth:`Database.session
    <repro.core.database.Database.session>`; each carries a database-
    unique ``session_id``. They are single-threaded objects — the
    testbed executes transactions serially per partition, and the
    network tier serializes all sessions onto the event loop.
    """

    __slots__ = ("database", "session_id", "name", "_state", "_context",
                 "_partition", "txns_committed", "txns_aborted",
                 "_expired_reason", "__weakref__")

    def __init__(self, database, session_id: int,
                 name: str = "") -> None:
        self.database = database
        self.session_id = session_id
        self.name = name or f"session-{session_id}"
        self._state = SessionState.OPEN
        self._context: Optional[TransactionContext] = None
        self._partition: Optional[Partition] = None
        self.txns_committed = 0
        self.txns_aborted = 0
        self._expired_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    @property
    def state(self) -> SessionState:
        return self._state

    @property
    def in_transaction(self) -> bool:
        return self._state is SessionState.ACTIVE

    @property
    def closed(self) -> bool:
        return self._state is SessionState.CLOSED

    @property
    def partition_id(self) -> Optional[int]:
        """Partition of the active transaction (None when idle)."""
        if self._partition is None:
            return None
        return self._partition.partition_id

    @property
    def context(self) -> Optional[TransactionContext]:
        """The active transaction's context (None when idle)."""
        return self._context

    @property
    def expired(self) -> bool:
        """True when the session was closed by :meth:`expire` (e.g.
        the server's lease reaper)."""
        return self._expired_reason is not None

    def _require_usable(self) -> None:
        if self._expired_reason is not None:
            raise LeaseExpiredError(
                f"{self.name} expired: {self._expired_reason}")
        if self._state is SessionState.CLOSED:
            raise SessionClosedError(
                f"{self.name} is closed; open a new session")

    def _require_open(self) -> None:
        self._require_usable()
        if self._state is SessionState.ACTIVE:
            raise SessionStateError(
                f"{self.name} already has an active transaction; "
                "commit() or abort() it first")

    def _require_active(self) -> None:
        self._require_usable()
        if self._state is not SessionState.ACTIVE:
            raise SessionStateError(
                f"{self.name} has no active transaction; call begin()")

    def _finish_txn(self) -> None:
        self._context = None
        self._partition = None
        if self._state is SessionState.ACTIVE:
            self._state = SessionState.OPEN

    def invalidate(self, reason: str = "database crashed") -> bool:
        """Drop the active transaction without touching the engine —
        :meth:`Database.crash <repro.core.database.Database.crash>`
        calls this on every open session (the engine's volatile state
        is gone; recovery decides the transaction's fate). Returns
        True if a transaction was open."""
        had_txn = self._state is SessionState.ACTIVE
        if had_txn:
            self.txns_aborted += 1
        self._finish_txn()
        return had_txn

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _guarded(self, operation, *args: Any) -> Any:
        """Run one engine call. A power failure inside it is not an
        abort — the engine must not run its rollback path: the whole
        database crashes, which ends every session's transaction."""
        try:
            return operation(*args)
        except SimulatedCrash:
            self.database.crash()
            raise

    def begin(self, partition: int = 0) -> TransactionContext:
        """Start a transaction on ``partition``; returns the live
        :class:`~repro.core.executor.TransactionContext` so in-process
        callers can drive engine operations with zero per-op session
        overhead."""
        self._require_open()
        self.database._require_alive()
        part = self.database.partitions[partition]
        self._context = self._guarded(part.begin)
        self._partition = part
        self._state = SessionState.ACTIVE
        return self._context

    def commit(self) -> int:
        """Commit the active transaction; returns its transaction id.
        Durability may still await the engine's next group-commit
        flush (see :meth:`flush`)."""
        return self._end(commit=True)

    def abort(self) -> int:
        """Abort the active transaction and roll back its effects;
        returns its transaction id."""
        return self._end(commit=False)

    def _end(self, commit: bool) -> int:
        self._require_active()
        context = self._context
        partition = self._partition
        self._guarded(partition.commit if commit else partition.abort,
                      context)
        self._finish_txn()
        if commit:
            self.txns_committed += 1
        else:
            self.txns_aborted += 1
        return context.txn.txn_id

    def execute(self, procedure: StoredProcedure, *args: Any,
                partition: int = 0) -> Any:
        """One-shot: run a stored procedure as a single transaction
        and commit on normal return — :meth:`Database.execute
        <repro.core.database.Database.execute>` with this session's
        counters and state checks."""
        self.begin(partition=partition)
        result = self.run(procedure, *args)
        self.commit()
        return result

    def run(self, procedure: StoredProcedure, *args: Any) -> Any:
        """Run a stored procedure inside the active transaction;
        aborts it (and re-raises) on
        :class:`~repro.errors.TransactionAborted` or any other
        exception. The network tier's ``call`` runs through here."""
        try:
            return self._op(procedure, *args)
        except SimulatedCrash:
            # Power failure, not an abort: recovery decides the
            # transaction's fate.
            raise
        except Exception:
            self.abort()
            raise

    # ------------------------------------------------------------------
    # In-transaction operations (server-facing verb surface)
    # ------------------------------------------------------------------

    def _op(self, operation, *args: Any) -> Any:
        """Run one engine operation of the active transaction."""
        self._require_active()
        return self._guarded(operation, self._context, *args)

    def insert(self, table: str, values: Dict[str, Any]) -> None:
        self._op(TransactionContext.insert, table, values)

    def update(self, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        self._op(TransactionContext.update, table, key, changes)

    def delete(self, table: str, key: Any) -> None:
        self._op(TransactionContext.delete, table, key)

    def get(self, table: str, key: Any) -> Optional[Dict[str, Any]]:
        return self._op(TransactionContext.get, table, key)

    def get_secondary(self, table: str, index_name: str,
                      key: Any) -> List[Any]:
        return self._op(TransactionContext.get_secondary, table,
                        index_name, key)

    def scan(self, table: str, lo: Any = None, hi: Any = None
             ) -> List[Tuple[Any, Dict[str, Any]]]:
        """Materialized range scan inside the active transaction (the
        remote tier cannot stream a live iterator)."""
        return self._op(
            lambda context: list(context.scan(table, lo=lo, hi=hi)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the session. An active transaction is aborted first
        (a closed database just drops it; a crash has already ended
        it). Idempotent."""
        if self._state is SessionState.ACTIVE:
            if self.database.closed:
                self.invalidate()
            else:
                self.abort()
        self._state = SessionState.CLOSED

    def expire(self, reason: str) -> None:
        """Close the session *with cause* — the server's lease reaper
        uses this so later verbs raise
        :class:`~repro.errors.LeaseExpiredError` (telling the client
        its work was revoked, not merely that the handle is stale)
        instead of :class:`~repro.errors.SessionClosedError`."""
        self.close()
        if self._expired_reason is None:
            self._expired_reason = reason

    def __enter__(self) -> "Session":
        if self._state is SessionState.CLOSED:
            raise SessionClosedError(f"{self.name} is already closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Session(id={self.session_id}, name={self.name!r}, "
                f"state={self._state.value})")
