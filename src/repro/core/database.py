"""The public Database facade.

This is the DBMS testbed of Fig. 2: a coordinator that receives
transaction requests and routes each to its partition, where it runs
serially against the active storage engine. Typical usage::

    from repro import Database, Schema, Column, ColumnType

    db = Database(engine="nvm-inp")
    db.create_table(Schema.build(
        "accounts",
        [Column("id", ColumnType.INT),
         Column("balance", ColumnType.FLOAT)],
        primary_key=["id"]))

    def deposit(ctx, account_id, amount):
        row = ctx.get("accounts", account_id)
        ctx.update("accounts", account_id,
                   {"balance": row["balance"] + amount})

    db.execute(deposit, 7, 100.0)

    db.crash()                    # simulated power failure
    seconds = db.recover()        # engine-specific recovery

A power failure — :meth:`Database.crash`, or a
:class:`~repro.errors.SimulatedCrash` inside any operation — is where
open transactions end: no session can commit work recovery rolled back.
"""

from __future__ import annotations

import itertools
import weakref
import zlib
from typing import Any, Dict, List, Optional

from ..config import EngineConfig, LatencyProfile, PlatformConfig
from ..engines.base import ENGINE_NAMES
from ..errors import (ConfigError, CrashedError, DatabaseClosedError,
                      SimulatedCrash, TransactionAborted)
from ..fault.injector import FaultPlan
from .partition import Partition, Rows, StoredProcedure
from .schema import Schema
from .session import Session


def stable_partition_hash(key: Any) -> int:
    """Deterministic cross-process hash used for partition routing."""
    if isinstance(key, int):
        return key
    return zlib.crc32(repr(key).encode("utf-8"))


class Database:
    """A partitioned OLTP database on an NVM-only storage hierarchy.

    Everything below goes through the per-partition contract
    (:class:`~repro.core.partition.Partition`), so one implementation
    of lifecycle, routing, the convenience operations, two-phase commit
    and recovery serves both transports: partitions in this process, or
    — :class:`~repro.dist.coordinator.ShardedDatabase` — one executor
    process each."""

    #: The transport: what a partition is built as.
    _partition_class = Partition

    def __init__(self, engine: str = ENGINE_NAMES.NVM_INP, *,
                 partitions: int = 1,
                 latency: Optional[LatencyProfile] = None,
                 platform_config: Optional[PlatformConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 seed: int = 0x5EED) -> None:
        if partitions < 1:
            raise ConfigError("need at least one partition")
        base_config = platform_config or PlatformConfig(seed=seed)
        if latency is not None:
            base_config = base_config.with_latency(latency)
        self.engine_name = engine
        self.engine_config = engine_config or EngineConfig()
        self.partitions = [
            self._partition_class(index, engine, base_config,
                                  self.engine_config)
            for index in range(partitions)
        ]
        self._crashed = False
        self._closed = False
        self._session_ids = itertools.count(1)
        #: Open sessions, held weakly: :meth:`crash` ends their transactions.
        self._sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()
        self._dtxn_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the database. Further operations raise
        :class:`~repro.errors.DatabaseClosedError`. Idempotent — the
        simulated NVM holds no host resources, so closing is a logical
        end-of-life marker that catches use-after-scope bugs."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def crashed(self) -> bool:
        """True between :meth:`crash` and a successful :meth:`recover`."""
        return self._crashed

    def session(self, name: str = "") -> Session:
        """Open an explicit transaction session — the
        begin/op/commit/abort lifecycle behind both the in-process API
        and the network tier (see :mod:`repro.core.session`)::

            with db.session() as s:
                ctx = s.begin()
                ctx.insert("kv", {"k": 1, "v": "hello"})
                s.commit()
        """
        self._require_alive()
        session = Session(self, next(self._session_ids), name=name)
        self._sessions.add(session)
        return session

    def __enter__(self) -> "Database":
        self._require_open("enter")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The partition contract, called from one place
    # ------------------------------------------------------------------

    def _on(self, pid: int, op: str, *args: Any) -> Any:
        """One contract verb on one partition of a live database; a
        simulated power failure inside it takes every partition down."""
        self._require_alive()
        try:
            return getattr(self.partitions[pid], op)(*args)
        except SimulatedCrash:
            self.crash()
            raise

    def _on_all(self, op: str, *args: Any) -> List[Any]:
        """One contract verb on every partition; results in partition
        order. No lifecycle check: crash, recovery and the counters
        are legal on a crashed database (and the counters of partitions
        in this process stay readable after :meth:`close`)."""
        try:
            return self._broadcast(op, *args)
        except SimulatedCrash:
            self.crash()
            raise

    def _broadcast(self, op: str, *args: Any) -> List[Any]:
        """The same contract call on every partition: one fan-out."""
        return self._partition_class.fan_out(
            [(partition, op, args) for partition in self.partitions])

    def _require_alive(self) -> None:
        if self._closed:
            raise DatabaseClosedError(
                "database closed; create a new Database to continue")
        if self._crashed:
            raise CrashedError(
                "database crashed; call recover() before new operations")

    def _require_open(self, action: str) -> None:
        if self._closed:
            raise DatabaseClosedError(
                f"cannot {action} a closed database")

    # ------------------------------------------------------------------
    # Schema & routing
    # ------------------------------------------------------------------

    def create_table(self, schema: Schema) -> None:
        """Create the table on every partition."""
        self._require_alive()
        self._on_all("create_table", schema)

    def route(self, key: Any) -> int:
        """Partition index responsible for ``key``."""
        return stable_partition_hash(key) % len(self.partitions)

    def _schema(self, table: str) -> Schema:
        return self.partitions[0].schema(table)

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------

    def execute(self, procedure: StoredProcedure, *args: Any,
                partition: int = 0) -> Any:
        """Run a stored procedure as one transaction on a partition.
        Returns its result in process; a remote partition queues the
        call and returns ``None`` (``procedure`` must then be
        picklable, and a failure surfaces at the next synchronous
        operation). Inlines :meth:`_on`: this is the hot path."""
        self._require_alive()
        try:
            return self.partitions[partition].execute(procedure, *args)
        except SimulatedCrash:
            self.crash()
            raise

    def insert(self, table: str, values: Dict[str, Any],
               partition: Optional[int] = None) -> None:
        """Single-operation insert transaction (routed by key)."""
        pid = self.route(self._schema(table).key_of(values)) \
            if partition is None else partition
        self._on(pid, "insert", table, values)

    def get(self, table: str, key: Any,
            partition: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """Single-operation point look-up."""
        pid = self.route(key) if partition is None else partition
        return self._on(pid, "get", table, key)

    def update(self, table: str, key: Any, changes: Dict[str, Any],
               partition: Optional[int] = None) -> None:
        """Single-operation update transaction."""
        pid = self.route(key) if partition is None else partition
        self._on(pid, "update", table, key, changes)

    def delete(self, table: str, key: Any,
               partition: Optional[int] = None) -> None:
        """Single-operation delete transaction."""
        pid = self.route(key) if partition is None else partition
        self._on(pid, "delete", table, key)

    def scan(self, table: str, lo: Any = None, hi: Any = None) -> Rows:
        """Range scan merged across partitions (read-only)."""
        self._require_alive()
        rows: Rows = []
        for chunk in self._on_all("scan", table, lo, hi):
            rows.extend(chunk)
        rows.sort(key=lambda pair: pair[0])
        return rows

    def flush(self) -> None:
        """Force a durable point on every partition (group commit)."""
        self._require_alive()
        self._on_all("flush")

    def barrier(self) -> None:
        """Wait until every operation issued so far has been executed;
        a power failure inside one of them is raised here. Partitions
        in this process run each operation before returning, so there
        is nothing to wait for — a transport that *posts* its writes
        (:class:`~repro.dist.coordinator.ShardedDatabase`) drains
        them."""

    def settle(self) -> None:
        """Write back all dirty CPU-cache lines (steady state before a
        measurement window; the cost is charged outside it)."""
        self._require_alive()
        self._on_all("settle")

    def checkpoint(self) -> None:
        self._require_alive()
        self._on_all("checkpoint")

    def set_checkpoint_interval(self, txns: int) -> None:
        """Adjust every partition engine's checkpoint interval at
        runtime (e.g. after bulk loading)."""
        self._require_alive()
        self._on_all("set_checkpoint_interval", txns)

    # ------------------------------------------------------------------
    # Distributed transactions (2PC driver; protocol: repro.core.twopc)
    # ------------------------------------------------------------------

    def execute_distributed(self, dtxn) -> Any:
        """Run a :class:`~repro.dist.txn.DistributedTransaction` with
        two-phase commit in three rounds — prepare every branch, make
        the decision durable at home, finish every branch — each
        fanned out to all participants at once; returns the home
        branch's result. A no vote, or any other failure before the
        decision is durable, rolls back every prepared branch in one
        round, then raises (:class:`~repro.errors.TransactionAborted`
        for a no vote). Synchronous: the participants stall until the
        decision, exactly the synchronization-vs-persistence cost 2PC
        implies."""
        self._require_alive()
        dtxn_id = next(self._dtxn_ids)
        fan_out = self._partition_class.fan_out
        branches = [(self.partitions[branch.partition], branch)
                    for branch in dtxn.branches()]

        def finish(commit: bool) -> None:
            fan_out([(partition, "branch_finish", (dtxn_id, commit))
                     for partition, __ in branches])

        try:
            try:
                votes = fan_out([
                    (partition, "branch_prepare",
                     (dtxn_id, dtxn.home, branch.procedure, branch.args))
                    for partition, branch in branches])
                for (__, branch), (vote, __) in zip(branches, votes):
                    if not vote:
                        raise TransactionAborted(
                            f"distributed transaction {dtxn_id}: "
                            f"partition {branch.partition} voted no")
                self.partitions[dtxn.home].log_decision(
                    dtxn_id, dtxn.participants)
            except SimulatedCrash:
                raise  # a power failure, not an abort: recovery decides
            except Exception:
                finish(False)
                raise
            finish(True)
        except SimulatedCrash:
            self.crash()
            raise
        return votes[0][1]  # the home branch comes first

    # ------------------------------------------------------------------
    # Restart events
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulated power failure across all partitions (their
        volatile state — prepared 2PC branches included — is wiped).
        Every open session's transaction ends here, with no engine
        rollback — recovery decides its fate — so a later ``commit()``
        on it raises :class:`~repro.errors.SessionStateError`."""
        self._require_open("crash")
        self._broadcast("crash")
        self._crashed = True
        for session in self._sessions:
            session.invalidate()

    def recover(self) -> float:
        """Run engine recovery, then presumed-abort resolution of
        in-doubt 2PC branches against the home partitions' decision
        logs. Returns the simulated seconds until the database is
        consistent (partitions recover in parallel, so the slowest one
        determines the latency). A no-op on a database that never
        crashed. May itself raise
        :class:`~repro.errors.SimulatedCrash` under an armed fault plan
        (crash-during-recovery) — the database is crashed again and the
        caller retries."""
        self._require_open("recover")
        if not self._crashed:
            return 0.0
        partitions = self.partitions
        broadcast = self._broadcast
        try:
            latency = max(broadcast("recover"))
            by_home: Dict[int, set] = {}
            for pending in broadcast("pending_prepares"):
                for dtxn_id, home in pending:
                    by_home.setdefault(home, set()).add(dtxn_id)
            decisions: Dict[int, bool] = {}
            for home in sorted(by_home):
                ids = sorted(by_home[home])
                committed = partitions[home].committed_decisions(ids)
                decisions.update((dtxn_id, dtxn_id in committed)
                                 for dtxn_id in ids)
            if decisions:
                latency = max(latency, *broadcast(
                    "resolve_prepared", decisions))
        except SimulatedCrash:
            self.crash()
            raise
        self._crashed = False
        return latency

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def arm_faults(self, plan: Optional[FaultPlan] = None) -> None:
        """Arm every partition's fault injector — count fault-point hits
        and, with a non-empty ``plan``, crash at its triggers. Each
        injector gets the same plan and counts its own hits; the first
        trigger to complete crashes the whole database. Every call of
        a fan-out runs before its first failure is raised, so a point
        all participants of a 2PC round reach (``twopc.prepare.after``)
        may fire on several partitions at once; the crash raised is
        the first in canonical branch order, on both transports.

        Arming a *crashed* database is allowed — that is how a plan
        targets the upcoming recovery (crash-during-recovery)."""
        self._require_open("arm faults on")
        self._on_all("arm_faults", plan)

    def disarm_faults(self) -> None:
        self._on_all("disarm_faults")

    def fault_hits(self) -> Dict[str, int]:
        """Fault-point hit counts summed across partitions (since the
        last :meth:`arm_faults`)."""
        return _sum_by_key(self._on_all("fault_hits"), 0)

    # ------------------------------------------------------------------
    # Metrics (deterministic merge of per-partition snapshots)
    # ------------------------------------------------------------------

    def _snapshots(self) -> List[Dict[str, Any]]:
        return self._on_all("snapshot")

    @property
    def now_ns(self) -> float:
        """Simulated wall-clock: the slowest partition's clock."""
        return max(snap["now_ns"] for snap in self._snapshots())

    @property
    def committed_txns(self) -> int:
        return sum(snap["committed"] for snap in self._snapshots())

    @property
    def aborted_txns(self) -> int:
        return sum(snap["aborted"] for snap in self._snapshots())

    def nvm_counters(self) -> Dict[str, int]:
        """Aggregated NVM loads/stores across partitions (Figs. 9-11)."""
        snapshots = self._snapshots()
        return {"loads": sum(snap["loads"] for snap in snapshots),
                "stores": sum(snap["stores"] for snap in snapshots)}

    def storage_breakdown(self) -> Dict[str, int]:
        """Aggregated live NVM bytes per component (Fig. 14)."""
        return _sum_by_key(self._on_all("storage_breakdown"), 0)

    def category_ns(self) -> Dict[str, float]:
        """Raw simulated nanoseconds per execution category, summed
        across partitions in partition order (the runner's measurement
        snapshots and :meth:`time_breakdown` both build on this)."""
        return _sum_by_key(
            [snap["category_ns"] for snap in self._snapshots()], 0.0)

    def time_breakdown(self) -> Dict[str, float]:
        """Aggregated execution-time fractions per category (Fig. 13)."""
        totals = self.category_ns()
        grand_total = sum(totals.values())
        if grand_total == 0:
            return totals
        return {name: value / grand_total
                for name, value in totals.items()}

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(engine={self.engine_name!r}, "
                f"partitions={len(self.partitions)})")


def _sum_by_key(parts: List[Dict[str, Any]], zero: Any) -> Dict[str, Any]:
    """Key-wise sum of per-partition dicts, in partition order (the
    order fixes float rounding, so merged counters are reproducible)."""
    totals: Dict[str, Any] = {}
    for part in parts:
        for name, value in part.items():
            totals[name] = totals.get(name, zero) + value
    return totals
