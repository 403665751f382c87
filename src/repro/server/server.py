"""The asyncio database server.

One :class:`DatabaseServer` owns one :class:`~repro.core.database.
Database` and serves it over a socket speaking the length-prefixed
JSON protocol of :mod:`repro.server.protocol`. The concurrency model
mirrors the paper's testbed:

* **Transaction execution is serial per partition.** A per-partition
  ``asyncio.Lock`` is held from ``begin`` to the logical commit or
  abort, so engine operations of different sessions never interleave
  within a partition (the engines assume serial execution and provide
  no inter-transaction isolation).
* **Durability is batched across sessions.** The logical commit
  enqueues onto the partition's
  :class:`~repro.server.groupcommit.GroupCommitStage` and releases
  the partition lock; the commit *response* is sent only once the
  batch reaches its durable point, so a client never observes a
  commit the recovery protocol could lose.
* **A durable ack waits for work, not for a timer.** The server
  counts, per partition, the sessions that hold or are queued on the
  lock; when a release leaves none, nobody can join the parked batch
  and the stage flushes it at once (reason ``quiet``).
* **A frame costs its verb, not the event loop.** A verb runs as its
  bytes arrive and becomes a task only if it must wait; reading pauses
  while it waits and while the write buffer is over its high-water mark.
* **Admission control** bounds transactions in flight (active plus
  awaiting durability) with a semaphore; a ``begin`` past the bound
  parks, and that parks the whole connection — natural backpressure
  down the socket.
* **Grants follow session state.** No verb releases a grant by hand:
  the lock belongs to a session with an active transaction, the slot
  to one that is active or awaiting its durable point, and
  :meth:`DatabaseServer._settle` gives back whatever a session holds
  beyond that — at every verb exit, around the group-commit park, on
  a crash and on close.
* **A power failure has one path.** ``_dispatch`` catches
  :class:`~repro.errors.SimulatedCrash` once: the database crashes
  (ending every open session's transaction), parked commits fail,
  every session is settled, the client gets the error frame.

All database work runs on the event-loop thread; engine calls never
await, so each verb handler is atomic between awaits by construction.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import logging
import signal
import threading
import types
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Set, Tuple, Union

from ..config import EngineConfig, LatencyProfile
from ..core.database import Database
from ..errors import (ConfigError, CrashedError, DatabaseClosedError,
                      LeaseExpiredError, ProtocolError, ReproError,
                      RetryAfterError, SimulatedCrash)
from ..obs.metrics import MetricsRegistry
from .groupcommit import GroupCommitConfig, GroupCommitStage
from .ledger import CommitLedger
from .protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION, FrameDecoder,
                       encode_frame, error_response, ok_response,
                       schema_from_wire, schema_to_wire, unwire_value,
                       wire_value)
from .registry import ProcedureRegistry

__all__ = ["ServerConfig", "DatabaseServer", "ServerThread"]

logger = logging.getLogger("repro.server")

#: Engine auto-flush is disabled on server-built databases — the
#: group-commit stage owns the durable-point cadence.
_NO_AUTO_FLUSH = 1 << 30

#: Cap on every map keyed by something a client supplies or causes
#: (reaped session ids, session names): oldest entries are dropped.
_MAX_CLIENT_KEYED_ENTRIES = 1024


@dataclass(frozen=True)
class ServerConfig:
    """Everything that defines one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral (reported by start)
    engine: str = "nvm-inp"
    partitions: int = 1
    latency: Union[None, str, LatencyProfile] = None
    seed: int = 0x5EED
    engine_config: Optional[EngineConfig] = None
    group_commit: GroupCommitConfig = field(
        default_factory=GroupCommitConfig)
    #: Transactions in flight (active + awaiting durability) before
    #: ``begin`` blocks.
    max_inflight: int = 64
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Load shedding: once this many ``begin``/``call`` requests are
    #: already parked waiting for admission, further ones are refused
    #: with :class:`~repro.errors.RetryAfterError` instead of parking
    #: (None = park without bound, the pre-shedding behavior).
    max_admission_queue: Optional[int] = None
    #: The backoff hint a shed request carries (clients add jitter).
    retry_after_s: float = 0.05
    #: Session lease: a session idle (no frame touching it) longer
    #: than this is reaped — its transaction aborted, its partition
    #: lock and admission slot released (None = no leases).
    session_lease_s: Optional[float] = None
    #: Cadence of the lease reaper / crash watchdog maintenance task.
    reaper_interval_s: float = 0.05
    #: Watchdog: auto-recover the database this many seconds after a
    #: crash (None = recovery stays explicit).
    watchdog_recover_s: Optional[float] = None
    #: Completed commit tokens remembered for exactly-once replay.
    commit_ledger_size: int = 4096

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if self.max_admission_queue is not None \
                and self.max_admission_queue < 0:
            raise ConfigError("max_admission_queue must be >= 0")
        if self.retry_after_s <= 0:
            raise ConfigError("retry_after_s must be positive")
        if self.session_lease_s is not None \
                and self.session_lease_s <= 0:
            raise ConfigError("session_lease_s must be positive")
        if self.reaper_interval_s <= 0:
            raise ConfigError("reaper_interval_s must be positive")
        if self.watchdog_recover_s is not None \
                and self.watchdog_recover_s < 0:
            raise ConfigError("watchdog_recover_s must be >= 0")
        if self.commit_ledger_size < 1:
            raise ConfigError("commit_ledger_size must be >= 1")


class _RemoteSession:
    """Server-side bookkeeping around one wire session."""

    __slots__ = ("session", "partition_id", "lock_held", "sem_held",
                 "awaiting", "busy", "last_seen")

    def __init__(self, session, now: float = 0.0) -> None:
        self.session = session
        self.partition_id = 0
        self.lock_held = False        # partition lock (execution)
        self.sem_held = False         # admission slot
        self.awaiting = False         # parked on a group-commit future
        self.busy = 0                 # verb handlers currently running
        self.last_seen = now          # loop time of the last frame


def _wire_rows(rows) -> list:
    """``scan``'s wire shape: ``[[key, row], ...]``."""
    return [[wire_value(key), wire_value(row)] for key, row in rows]


def _table_verb(verb: str, *names: str, reply: Optional[str] = None,
                encode=wire_value):
    """The handler of one in-transaction table verb: the arguments
    ``names`` are decoded in wire order (table and index names are
    strings, everything else a wire value), the session method of the
    same name runs, and its result is encoded under the ``reply`` key."""
    async def handler(server, conn_sessions, remote, args):
        remote = server._remote(conn_sessions, remote, args)
        result = getattr(remote.session, verb)(*[
            str(args.get(name, "")) if name in ("table", "index")
            else unwire_value(args.get(name)) for name in names])
        return {} if reply is None else {reply: encode(result)}
    return handler


class DatabaseServer:
    """Serves one database over the wire protocol."""

    def __init__(self, config: Optional[ServerConfig] = None, *,
                 database: Optional[Database] = None,
                 procedures: Optional[ProcedureRegistry] = None) -> None:
        self.config = config or ServerConfig()
        self.database = database or self._build_database(self.config)
        self.procedures = procedures or ProcedureRegistry()
        self.metrics = MetricsRegistry()
        self.address: Optional[Tuple[str, int]] = None
        self._sessions: Dict[int, _RemoteSession] = {}
        #: Session name -> latency histogram (bounded: the name is
        #: client-supplied; an evicted series leaves ``metrics`` too).
        self._latency_hists: "OrderedDict[str, Any]" = OrderedDict()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stages: Dict[int, GroupCommitStage] = {}
        self._locks: Dict[int, asyncio.Lock] = {}
        #: Partition -> sessions holding or queued on its lock (the
        #: only ones that could still join its parked batch).
        self._contenders: Dict[int, int] = {}
        self._admission: Optional[asyncio.Semaphore] = None
        self._connections: Set[_Connection] = set()
        self._shutdown_event: Optional[asyncio.Event] = None
        self._stopped = False
        self._ledger = CommitLedger(self.config.commit_ledger_size)
        #: Reaped session ids -> reason (bounded; LeaseExpiredError).
        self._expired: "OrderedDict[int, str]" = OrderedDict()
        self._admission_queue = 0     # begins parked waiting admission
        self._inflight = 0            # admission slots currently held
        self._crashed_at: Optional[float] = None
        self._maintenance_task: Optional[asyncio.Task] = None
        self._frames = self.metrics.counter("server.frames")
        self._error_count = self.metrics.counter("server.errors")
        self._admission_waits = self.metrics.counter(
            "server.admission_waits")
        self._shed_count = self.metrics.counter("server.shed")
        self._reaped_count = self.metrics.counter(
            "server.reaper.expired")
        self._watchdog_recoveries = self.metrics.counter(
            "server.watchdog.recoveries")
        self._commit_dedup = self.metrics.counter(
            "server.commit.dedup")

    @staticmethod
    def _build_database(config: ServerConfig) -> Database:
        engine_config = dataclasses.replace(
            config.engine_config or EngineConfig(),
            group_commit_size=_NO_AUTO_FLUSH)
        latency = config.latency
        if isinstance(latency, str):
            latency = LatencyProfile.parse(latency)
        return Database(config.engine, partitions=config.partitions,
                        latency=latency, engine_config=engine_config,
                        seed=config.seed)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._admission = asyncio.Semaphore(self.config.max_inflight)
        for partition in self.database.partitions:
            pid = partition.partition_id
            self._locks[pid] = asyncio.Lock()
            self._contenders[pid] = 0
            self._stages[pid] = GroupCommitStage(
                partition, self.config.group_commit, self._loop,
                on_crash=self._crash_from_engine,
                batch_histogram=self.metrics.histogram(
                    "server.group_commit.batch_txns",
                    partition=str(pid)))
        if self.config.session_lease_s is not None \
                or self.config.watchdog_recover_s is not None:
            self._maintenance_task = self._loop.create_task(
                self._maintenance_loop())
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        logger.info("serving %s engine on %s:%d", self.database.engine_name,
                    *self.address)
        return self.address

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown` (or the ``shutdown``
        verb) fires, then stop cleanly."""
        if self._server is None:
            await self.start()
        await self._shutdown_event.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (thread-safe from the loop)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def stop(self) -> None:
        """Stop listening, resolve outstanding durability, close every
        connection and session, and cancel the verbs still waiting."""
        if self._stopped:
            return
        self._stopped = True
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._maintenance_task
            self._maintenance_task = None
        if self._server is not None:
            self._server.close()
        alive = not (self.database.closed or self.database.crashed)
        for stage in self._stages.values():
            if alive:
                stage.flush("shutdown")
            else:
                stage.fail_pending("server shut down")
            stage.close()
        waiting = [conn.task for conn in self._connections if conn.task]
        for conn in list(self._connections):
            conn.transport.close()
        for task in waiting:
            task.cancel()
        await asyncio.gather(*waiting, return_exceptions=True)
        for session_id in list(self._sessions):
            self._close_session(session_id)
        logger.info("server stopped (%d committed, %d aborted)",
                    self.database.committed_txns,
                    self.database.aborted_txns)

    def run(self, ready=None) -> None:
        """Blocking entry point: serve until SIGINT/SIGTERM, then shut
        down gracefully (used by ``python -m repro serve``). ``ready``
        is called with the bound ``(host, port)`` once listening."""
        asyncio.run(self._run_with_signals(ready))

    async def _run_with_signals(self, ready=None) -> None:
        await self.start()
        if ready is not None:
            ready(self.address)
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await self.serve_forever()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, conn_sessions: Set[int],
                        payload: Dict[str, Any]) -> Dict[str, Any]:
        request_id = payload.get("id")
        verb = payload.get("verb")
        args = payload.get("args", {})
        self._frames.inc()
        remote = None
        try:
            handler = self._HANDLERS.get(verb) \
                if isinstance(verb, str) else None
            if handler is None:
                raise ProtocolError(f"unknown verb {verb!r}")
            if not isinstance(args, dict):
                raise ProtocolError(f"args must be an object, "
                                    f"got {type(args).__name__}")
            session_id = args.get("session")
            if session_id is not None \
                    and not isinstance(session_id, int):
                raise ProtocolError(
                    f"session must be an integer id, got {session_id!r}")
            # The one session look-up of a frame: an id only works on
            # the connection that opened it. The frame renews the lease,
            # and a session with a handler mid-flight (e.g. parked in
            # ``begin`` on admission) is never reaped from under it.
            if session_id in conn_sessions:
                remote = self._sessions.get(session_id)
            if remote is not None:
                remote.busy += 1
                remote.last_seen = self._loop.time()
            result = await handler(self, conn_sessions, remote, args)
        except SimulatedCrash as exc:
            # The one power-failure path: whatever verb it struck, the
            # platform is down — never an abort.
            self._error_count.inc()
            self._crash_from_engine()
            return error_response(request_id, exc)
        except ReproError as exc:
            self._error_count.inc()
            return error_response(request_id, exc)
        except Exception as exc:  # procedure bugs etc.
            self._error_count.inc()
            logger.exception("verb %s failed unexpectedly", verb)
            return error_response(request_id, exc)
        finally:
            if remote is not None:
                remote.busy -= 1
                remote.last_seen = self._loop.time()
                # Not while another handler of this session is in
                # flight: a ``begin`` parked in ``_admit`` must not be
                # settled from under itself.
                if not remote.busy:
                    self._settle(remote)
        return ok_response(request_id, result)

    # ------------------------------------------------------------------
    # Crash plumbing
    # ------------------------------------------------------------------

    def _crash_from_engine(self) -> int:
        """A SimulatedCrash escaped the engine (inside a verb, a
        group-commit flush, the watchdog's recovery): convert it into a
        full platform crash, exactly like Database.flush does."""
        if not (self.database.closed or self.database.crashed):
            self.database.crash()
        return self._after_crash()

    def _after_crash(self) -> int:
        """The database just crashed, which ended every session's
        transaction: fail the parked commits (each gives its slot back
        as its future fails) and settle the grants the dead
        transactions held. Returns the number of logically-committed
        transactions that were lost."""
        self._crashed_at = self._loop.time()
        lost = sum(stage.fail_pending("power failure")
                   for stage in self._stages.values())
        for remote in self._sessions.values():
            self._settle(remote)
        return lost

    # ------------------------------------------------------------------
    # Maintenance: the lease reaper and the crash watchdog
    # ------------------------------------------------------------------

    async def _maintenance_loop(self) -> None:
        """Periodic housekeeping on the event loop: reap sessions idle
        past their lease (so one dead client cannot wedge a partition
        forever) and, when configured, auto-recover the database after
        a crash."""
        while True:
            await asyncio.sleep(self.config.reaper_interval_s)
            now = self._loop.time()
            self._reap_expired(now)
            self._watchdog_check(now)

    def _reap_expired(self, now: float) -> None:
        lease = self.config.session_lease_s
        if lease is None:
            return
        reason = f"exceeded the {lease:g}s session lease while idle"
        for session_id, remote in list(self._sessions.items()):
            # A handler mid-flight (parked in begin, executing a
            # procedure) or a commit awaiting durability is server-side
            # progress, not client idleness — never reap those.
            if remote.busy or remote.awaiting:
                continue
            if now - remote.last_seen < lease:
                continue
            self._close_session(session_id, expired=reason)

    def _watchdog_check(self, now: float) -> None:
        delay = self.config.watchdog_recover_s
        if delay is None or self.database.closed \
                or not self.database.crashed:
            return
        if self._crashed_at is None:    # crash predates this observer
            self._crashed_at = now
            return
        if now - self._crashed_at < delay:
            return
        try:
            seconds = self.database.recover()
        except SimulatedCrash:
            self._crash_from_engine()
            return
        self._crashed_at = None
        self._watchdog_recoveries.inc()
        logger.info("watchdog recovered the database "
                    "(%.6f simulated seconds)", seconds)

    # ------------------------------------------------------------------
    # Session / grant helpers
    # ------------------------------------------------------------------

    def _remote(self, conn_sessions: Set[int],
                remote: Optional[_RemoteSession],
                args: Dict[str, Any]) -> _RemoteSession:
        """The session a verb needs: the one ``_dispatch`` resolved
        for this frame, or the reason there is none."""
        if remote is None:
            session_id = args.get("session")
            reason = self._expired.get(session_id)
            if reason is not None and session_id in conn_sessions:
                raise LeaseExpiredError(f"session {session_id} {reason}")
            raise ProtocolError(
                f"no open session {session_id!r} on this connection")
        return remote

    async def _admit(self, remote: _RemoteSession, pid: int) -> None:
        """Take an admission slot and the partition's execution lock.
        With ``max_admission_queue`` set, a request that would park
        behind a full queue is shed with
        :class:`~repro.errors.RetryAfterError` before any state
        changes — overload degrades to fast refusals, not an
        ever-deepening convoy."""
        limit = self.config.max_admission_queue
        if self._admission.locked():
            if limit is not None and self._admission_queue >= limit:
                self._shed_count.inc()
                raise RetryAfterError(
                    f"server overloaded: {self._admission_queue} "
                    f"transactions already queued for admission; "
                    f"retry later",
                    retry_after_s=self.config.retry_after_s)
            self._admission_waits.inc()
        self._admission_queue += 1
        try:
            # ACD002 waived: ownership transfers to the session —
            # remote.sem_held marks it, and _settle gives the slot
            # back once the txn is durable or dead.
            await self._admission.acquire()  # noqa: ACD002
        finally:
            self._admission_queue -= 1
        remote.sem_held = True
        self._inflight += 1
        # ACD002 waived: same ownership transfer — the partition lock
        # is held begin→logical-commit across verb handlers
        # (remote.lock_held) and released by _settle; a cancelled
        # acquire leaves only the slot, which _dispatch's exit settles.
        # Counted after the slot: a begin still waiting for one cannot
        # join a batch whose parked members hold the slots it wants.
        self._contenders[pid] += 1
        try:
            await self._locks[pid].acquire()  # noqa: ACD002
        except asyncio.CancelledError:
            self._left(pid)
            raise
        remote.lock_held = True
        remote.partition_id = pid

    def _left(self, pid: int) -> None:
        """One session fewer holds or waits for partition ``pid``'s
        lock; once none does, nobody can join its parked batch."""
        self._contenders[pid] -= 1
        if not self._contenders[pid] \
                and not (self.database.closed or self.database.crashed):
            self._stages[pid].quiet()

    def _settle(self, remote: _RemoteSession) -> None:
        """Grants follow session state — the one place they are
        released. The partition lock belongs to a session with an
        active transaction; the admission slot to one that is active
        or awaiting its durable point; anything else held goes back."""
        active = remote.session.in_transaction
        if remote.lock_held and not active:
            remote.lock_held = False
            self._locks[remote.partition_id].release()
            self._left(remote.partition_id)
        if remote.sem_held and not (active or remote.awaiting):
            remote.sem_held = False
            self._inflight -= 1
            self._admission.release()

    async def _await_durable(self, remote: _RemoteSession) -> None:
        """Park on the partition's group-commit stage until the just-
        committed transaction is durable. ``awaiting`` is set first:
        the lock goes at the logical commit, so others execute during
        the park; the slot only once durable. Enqueued before the lock
        goes, so a release that leaves the partition quiet flushes a
        batch that already holds this commit."""
        remote.awaiting = True
        future = self._stages[remote.partition_id].enqueue(
            lambda: self._settle(remote))
        try:
            await future
        finally:
            remote.awaiting = False
            self._settle(remote)

    def _observe_latency(self, remote: _RemoteSession,
                         latency_ns: float) -> None:
        name = remote.session.name
        hist = self._latency_hists.get(name)
        if hist is None:
            hist = self.metrics.histogram("server.txn_latency_ns",
                                          session=name)
            self._latency_hists[name] = hist
            while len(self._latency_hists) > _MAX_CLIENT_KEYED_ENTRIES:
                __, evicted = self._latency_hists.popitem(last=False)
                self.metrics.remove(evicted)
        hist.observe(latency_ns)

    def _close_session(self, session_id: int,
                       expired: Optional[str] = None) -> None:
        """Forget a session: abort its transaction, settle its grants,
        close it — or, for the lease reaper, expire it with the reason
        its owner's next verb will be told."""
        remote = self._sessions.pop(session_id, None)
        if remote is None:
            return
        try:
            # (A crashed database has no transaction left to abort.)
            if remote.session.in_transaction and not self.database.closed:
                remote.session.abort()
        except SimulatedCrash:
            self._crash_from_engine()
        finally:
            # Aborted, dead with the database, or failing to abort:
            # the transaction is over and its grants go back.
            remote.session.invalidate()
            self._settle(remote)
            if expired is None:
                remote.session.close()
            else:
                logger.info("reaping session %s (%s)",
                            remote.session.name, expired)
                remote.session.expire(expired)
                self._reaped_count.inc()
                self._expired[session_id] = expired
                while len(self._expired) > _MAX_CLIENT_KEYED_ENTRIES:
                    self._expired.popitem(last=False)

    # ------------------------------------------------------------------
    # Verb handlers
    # ------------------------------------------------------------------

    async def _verb_hello(self, conn_sessions, remote, args):
        gc = self.config.group_commit
        return {"server": "repro", "protocol": PROTOCOL_VERSION,
                "engine": self.database.engine_name,
                "partitions": len(self.database.partitions),
                "group_commit": {"enabled": gc.enabled,
                                 "batch_size": gc.batch_size,
                                 "max_hold_ns": gc.max_hold_ns,
                                 "max_hold_wall_s": gc.max_hold_wall_s},
                "max_inflight": self.config.max_inflight,
                "max_admission_queue": self.config.max_admission_queue,
                "session_lease_s": self.config.session_lease_s,
                "watchdog_recover_s": self.config.watchdog_recover_s,
                "commit_ledger_size": self.config.commit_ledger_size}

    async def _verb_ping(self, conn_sessions, remote, args):
        return {"now_ns": self.database.partitions[0].platform.clock.now_ns}

    async def _verb_open_session(self, conn_sessions, remote, args):
        session = self.database.session(str(args.get("name", "")))
        self._sessions[session.session_id] = _RemoteSession(
            session, now=self._loop.time())
        conn_sessions.add(session.session_id)
        return {"session": session.session_id, "name": session.name}

    async def _verb_close_session(self, conn_sessions, remote, args):
        remote = self._remote(conn_sessions, remote, args)
        session_id = remote.session.session_id
        self._close_session(session_id)
        conn_sessions.discard(session_id)
        return {"closed": session_id}

    async def _verb_create_table(self, conn_sessions, remote, args):
        schema = schema_from_wire(args.get("schema"))
        self.database.create_table(schema)
        return {"table": schema.table}

    async def _verb_schema(self, conn_sessions, remote, args):
        table = args.get("table")
        schema = self.database.partitions[0].engine.schemas.get(table)
        if schema is None:
            raise ProtocolError(f"no such table {table!r}")
        return {"schema": schema_to_wire(schema)}

    async def _begin(self, remote: _RemoteSession, args: Dict[str, Any]):
        """Admit the session and start its transaction (``begin`` and
        ``call``). Whatever fails after admission, the verb's exit
        settles the grants."""
        pid = args.get("partition", 0)
        if not isinstance(pid, int) \
                or not 0 <= pid < len(self.database.partitions):
            raise ProtocolError(f"no such partition {pid!r}")
        # Fail fast before taking locks for an illegal state.
        remote.session._require_open()
        self.database._require_alive()
        await self._admit(remote, pid)
        return remote.session.begin(partition=pid)

    async def _verb_begin(self, conn_sessions, remote, args):
        remote = self._remote(conn_sessions, remote, args)
        context = await self._begin(remote, args)
        return {"txn": context.txn.txn_id, "partition": remote.partition_id}

    async def _verb_commit(self, conn_sessions, remote, args):
        token = args.get("token")
        if token is not None:
            token = str(token)
            entry = self._ledger.lookup(token)
            if entry is not None:       # a retry of a recorded commit
                return self._replay_commit(token, entry)
        remote = self._remote(conn_sessions, remote, args)
        remote.session._require_active()
        txn = remote.session.context.txn
        if token is not None:
            # Recorded before any engine work: from here on, a token
            # the ledger does not know was certainly never applied.
            self._ledger.begin(token)
        try:
            txn_id = remote.session.commit()
        except SimulatedCrash as exc:
            # The token's fate is recorded before the power failure
            # takes its one path out through _dispatch.
            if token is not None:
                self._ledger.resolve_failed(
                    token, f"power failed during the logical commit "
                           f"({exc})")
            raise
        latency_ns = txn.commit_ns - txn.begin_ns
        try:
            await self._await_durable(remote)
        except CrashedError as exc:
            if token is not None:
                self._ledger.resolve_failed(token, str(exc))
            raise
        result = {"txn": txn_id, "durable": True,
                  "latency_ns": latency_ns}
        if token is not None:
            self._ledger.resolve_durable(token, dict(result))
        self._observe_latency(remote, latency_ns)
        return result

    def _replay_commit(self, token: str, entry) -> Dict[str, Any]:
        """A commit frame whose token the ledger already knows: answer
        from the record — the engine never sees the retry."""
        self._commit_dedup.inc()
        self._ledger.dedup_hits += 1
        if entry.status == "pending":
            # The original commit coroutine is still parked on group
            # commit; tell the client to ask again shortly.
            raise RetryAfterError(
                f"commit {token} is still awaiting its durable point",
                retry_after_s=min(self.config.retry_after_s, 0.02))
        if entry.status == "durable":
            return dict(entry.result)
        raise CrashedError(f"commit not durable: {entry.reason}")

    async def _verb_commit_status(self, conn_sessions, remote, args):
        token = str(args.get("token", ""))
        return self._ledger.status(token)

    async def _verb_abort(self, conn_sessions, remote, args):
        remote = self._remote(conn_sessions, remote, args)
        return {"txn": remote.session.abort(), "aborted": True}

    async def _verb_call(self, conn_sessions, remote, args):
        remote = self._remote(conn_sessions, remote, args)
        procedure = self.procedures.get(str(args.get("name", "")))
        call_args = unwire_value(args.get("args", []))
        if not isinstance(call_args, list):
            raise ProtocolError("call args must be a list")
        txn = (await self._begin(remote, args)).txn
        # Aborts when the procedure raises — but never on a power
        # failure: recovery decides the transaction's fate.
        result = remote.session.run(procedure, *call_args)
        txn_id = remote.session.commit()
        latency_ns = txn.commit_ns - txn.begin_ns
        await self._await_durable(remote)
        self._observe_latency(remote, latency_ns)
        return {"txn": txn_id, "result": wire_value(result),
                "latency_ns": latency_ns}

    async def _verb_procedures(self, conn_sessions, remote, args):
        return {"procedures": list(self.procedures.names())}

    # -- admin ----------------------------------------------------------

    async def _verb_flush(self, conn_sessions, remote, args):
        self.database._require_alive()
        flushed = sum(stage.flush("explicit")
                      for stage in self._stages.values())
        if self.database.crashed:
            raise CrashedError("power failed during the durable point")
        return {"flushed": flushed}

    async def _verb_checkpoint(self, conn_sessions, remote, args):
        self.database.checkpoint()
        return {}

    async def _verb_crash(self, conn_sessions, remote, args):
        if self.database.closed:
            raise DatabaseClosedError("cannot crash a closed database")
        return {"crashed": True, "lost_commits": self._crash_from_engine()}

    async def _verb_recover(self, conn_sessions, remote, args):
        seconds = self.database.recover()
        self._crashed_at = None
        return {"seconds": seconds,
                "committed_txns": self.database.committed_txns}

    async def _verb_stats(self, conn_sessions, remote, args):
        latency = {
            name: hist.percentiles((50, 95, 99))
            for name, hist in sorted(self._latency_hists.items())
        }
        return {
            "engine": self.database.engine_name,
            "partitions": len(self.database.partitions),
            "crashed": self.database.crashed,
            "committed_txns": self.database.committed_txns,
            "aborted_txns": self.database.aborted_txns,
            "sessions": [
                {"session": remote.session.session_id,
                 "name": remote.session.name,
                 "state": remote.session.state.value,
                 "committed": remote.session.txns_committed,
                 "aborted": remote.session.txns_aborted,
                 "awaiting": remote.awaiting,
                 "busy": remote.busy > 0}
                for remote in self._sessions.values()
            ],
            "group_commit": [stage.stats()
                             for _, stage in sorted(self._stages.items())],
            "latency_ns": latency,
            "admission": {
                "max_inflight": self.config.max_inflight,
                "in_flight": self._inflight,
                "queue": self._admission_queue,
                "queue_limit": self.config.max_admission_queue,
                "waits": int(self._admission_waits.value),
                "shed": int(self._shed_count.value),
            },
            "locks_held": [pid for pid, lock
                           in sorted(self._locks.items())
                           if lock.locked()],
            "reaper": {
                "lease_s": self.config.session_lease_s,
                "expired": int(self._reaped_count.value),
            },
            "watchdog": {
                "recover_s": self.config.watchdog_recover_s,
                "recoveries": int(self._watchdog_recoveries.value),
            },
            "ledger": self._ledger.stats(),
            "frames": int(self._frames.value),
            "errors": int(self._error_count.value),
        }

    async def _verb_shutdown(self, conn_sessions, remote, args):
        self._loop.call_soon(self.request_shutdown)
        return {"stopping": True}

    _HANDLERS = {
        "hello": _verb_hello,
        "ping": _verb_ping,
        "open_session": _verb_open_session,
        "close_session": _verb_close_session,
        "create_table": _verb_create_table,
        "schema": _verb_schema,
        "begin": _verb_begin,
        "commit": _verb_commit,
        "commit_status": _verb_commit_status,
        "abort": _verb_abort,
        "call": _verb_call,
        "procedures": _verb_procedures,
        # In-transaction table operations: argument names in wire
        # order, then the result key and its encoder.
        "insert": _table_verb("insert", "table", "values"),
        "update": _table_verb("update", "table", "key", "changes"),
        "delete": _table_verb("delete", "table", "key"),
        "get": _table_verb("get", "table", "key", reply="row"),
        "get_secondary": _table_verb("get_secondary", "table", "index",
                                     "key", reply="keys"),
        "scan": _table_verb("scan", "table", "lo", "hi", reply="rows",
                            encode=_wire_rows),
        "flush": _verb_flush,
        "checkpoint": _verb_checkpoint,
        "crash": _verb_crash,
        "recover": _verb_recover,
        "stats": _verb_stats,
        "shutdown": _verb_shutdown,
    }


@types.coroutine
def _resume(coro, waiting_on):
    """Finish a hand-started ``coro``: the task's sends and throws go
    on to it."""
    while True:
        try:
            try:
                sent = yield waiting_on
            except BaseException as exc:
                waiting_on = coro.throw(exc)
            else:
                waiting_on = coro.send(sent)
        except StopIteration as done:
            return done.value


class _Connection(asyncio.BufferedProtocol):
    """One client connection. It reads into one reused buffer: a plain
    protocol's ``recv`` allocates 256 KiB per read."""

    def __init__(self, server: DatabaseServer) -> None:
        self._server = server
        self._inbox = bytearray(1 << 16)
        self._max_frame = server.config.max_frame_bytes
        self._decoder = FrameDecoder(max_frame_bytes=self._max_frame)
        self._backlog: Deque[Any] = deque()   # a ProtocolError ends it
        self.sessions: Set[int] = set()
        self.task: Optional[asyncio.Task] = None    # the verb that waits
        self._write_paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._server._connections.add(self)

    def get_buffer(self, sizehint: int) -> bytearray:
        return self._inbox

    def buffer_updated(self, nbytes: int) -> None:
        try:
            self._backlog.extend(self._decoder.feed(self._inbox[:nbytes]))
            if self._backlog and self._decoder.buffered_bytes:
                self._decoder.feed(b"")     # raises on a corrupt frame
        except ProtocolError as exc:
            self._backlog.append(exc)
        self._run()

    def _run(self) -> None:
        while self._backlog and self.task is None and not (
                self._write_paused or self.transport.is_closing()):
            payload = self._backlog.popleft()
            if isinstance(payload, ProtocolError):
                # Corrupt framing: answer once, then drop the connection.
                self._server._error_count.inc()
                self._send(error_response(None, payload))
                self.transport.close()
                return
            coro = self._server._dispatch(self.sessions, payload)
            try:
                waiting_on = coro.send(None)
            except StopIteration as done:
                self._send(done.value)
                continue
            self.task = asyncio.ensure_future(_resume(coro, waiting_on))
            self.task.add_done_callback(self._answered)
        if self.task is None and not self._write_paused:
            self.transport.resume_reading()
        else:
            self.transport.pause_reading()

    def _answered(self, task: asyncio.Task) -> None:
        self.task = None
        if self.transport.is_closing():
            self.connection_lost(None)      # now its sessions can close
        elif not task.cancelled():
            self._send(task.result())
            self._run()

    def _send(self, response: Dict[str, Any]) -> None:
        try:
            frame = encode_frame(response, max_frame_bytes=self._max_frame)
        except (ProtocolError, TypeError, ValueError) as exc:
            # Unserializable or oversized result: degrade to an error
            # frame rather than killing the connection.
            self._server._error_count.inc()
            frame = encode_frame(error_response(response.get("id"), exc))
        self.transport.write(frame)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._run()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._connections.discard(self)
        if self.task is None:
            for session_id in list(self.sessions):
                self._server._close_session(session_id)


class ServerThread:
    """Run a :class:`DatabaseServer` on a background thread — the
    loopback harness used by tests, the closed-loop driver, and the CI
    smoke job."""

    def __init__(self, config: Optional[ServerConfig] = None, *,
                 database: Optional[Database] = None,
                 procedures: Optional[ProcedureRegistry] = None) -> None:
        self.server = DatabaseServer(config, database=database,
                                     procedures=procedures)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def start(self) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.server.address

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:    # surface startup failures
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        finally:
            self._ready.set()
        await self.server.serve_forever()

    def stop(self, timeout: float = 10.0) -> None:
        """Request a graceful shutdown and join the thread."""
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
