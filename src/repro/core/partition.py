"""One database partition: its platform, engine, and serial executor.

The testbed partitions the database so that every transaction touches a
single partition, and "transactions are executed serially at each
partition based on timestamp ordering" (Section 3). Each partition is
modeled as its own emulated platform (its own simulated clock, cache,
and NVM accounting), mirroring the paper's one-worker-per-core,
one-partition-per-worker configuration: total wall-clock time for a run
is the *maximum* across partitions, and NVM load/store counts sum.

:class:`Partition` is also the one per-partition *contract*:
:class:`~repro.core.database.Database` does everything — schema, the
one-shot operations, durability points, crash and recovery, counters,
fault plans, two-phase commit — through the methods below and never
reaches into ``engine`` or ``platform``. That is what lets the sharded
tier swap in :class:`~repro.dist.coordinator.RemotePartition`, which
speaks the same verbs over a pipe to an executor process hosting the
real ``Partition``. Verb arguments and results are therefore plain
picklable values (an open transaction context never crosses the
contract: a prepared 2PC branch stays in the partition's own table).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..config import EngineConfig, PlatformConfig
from ..engines.base import create_engine
from ..errors import (SimulatedCrash, TransactionAborted,
                      TransactionStateError)
from ..fault.injector import FaultPlan
from ..nvm.platform import Platform
from ..obs.session import ObservabilityOptions, PartitionObserver
from ..sim.stats import Category
from . import twopc
from .executor import TransactionContext
from .schema import Schema

StoredProcedure = Callable[..., Any]
Rows = List[Tuple[Any, Dict[str, Any]]]


class Partition:
    """A single-threaded partition running one storage engine."""

    def __init__(self, partition_id: int, engine_name: str,
                 platform_config: PlatformConfig,
                 engine_config: EngineConfig) -> None:
        self.partition_id = partition_id
        # Each partition gets an independent RNG stream for its crash
        # lottery while staying fully deterministic.
        self.platform = Platform(replace(
            platform_config,
            seed=platform_config.seed * 1000003 + partition_id))
        self.engine = create_engine(engine_name, self.platform,
                                    engine_config)
        #: Prepared-but-undecided 2PC branches, by distributed
        #: transaction id. Volatile: a crash wipes the table and the
        #: branches become in-doubt (see :meth:`resolve_prepared`).
        self._prepared: Dict[int, TransactionContext] = {}
        self._observer: Optional[PartitionObserver] = None

    @staticmethod
    def broadcast(partitions: Iterable["Partition"], op: str,
                  *args: Any) -> List[Any]:
        """Run contract verb ``op`` on every partition; results in
        partition order. (A transport may overlap the calls.)"""
        return [getattr(partition, op)(*args)
                for partition in partitions]

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> TransactionContext:
        """Start a transaction; returns its live execution context."""
        txn = self.engine.begin()
        # Transaction begin/commit bookkeeping is compute, not NVM.
        self.platform.clock.advance(self.engine.config.txn_cpu_ns)
        return TransactionContext(self.engine, txn)

    def commit(self, context: TransactionContext) -> None:
        """Commit the context's transaction (engine commit + per-txn
        latency observation + telemetry probe)."""
        txn = context.txn
        self.engine.commit(txn)
        histogram = self.platform.txn_latency
        if histogram is not None:
            histogram.observe(txn.commit_ns - txn.begin_ns)
        probe = self.platform.txn_probe
        if probe is not None:
            probe()

    def abort(self, context: TransactionContext) -> None:
        """Abort the context's transaction and roll back its effects."""
        self.engine.abort(context.txn)

    def execute(self, procedure: StoredProcedure, *args: Any) -> Any:
        """Run a stored procedure in its own transaction.

        Commits on normal return; aborts (and re-raises) on
        :class:`TransactionAborted` or any other exception.
        """
        context = self.begin()
        try:
            result = procedure(context, *args)
        except SimulatedCrash:
            # Power failure, not an abort: the engine must not run its
            # rollback path — the platform crash freezes state as-is and
            # recovery decides the transaction's fate.
            raise
        except Exception:
            self.abort(context)
            raise
        self.commit(context)
        return result

    # ------------------------------------------------------------------
    # Schema and one-shot operations (each its own transaction)
    # ------------------------------------------------------------------

    def create_table(self, schema: Schema) -> None:
        self.engine.create_table(schema)

    def schema(self, table: str) -> Schema:
        return self.engine._schema(table)

    def insert(self, table: str, values: Dict[str, Any]) -> None:
        self.execute(TransactionContext.insert, table, values)

    def update(self, table: str, key: Any,
               changes: Dict[str, Any]) -> None:
        self.execute(TransactionContext.update, table, key, changes)

    def delete(self, table: str, key: Any) -> None:
        self.execute(TransactionContext.delete, table, key)

    def get(self, table: str, key: Any) -> Optional[Dict[str, Any]]:
        return self.execute(TransactionContext.get, table, key)

    def scan(self, table: str, lo: Any = None, hi: Any = None) -> Rows:
        """Materialized, ordered range scan (read-only)."""
        return self.execute(
            lambda ctx: list(ctx.scan(table, lo=lo, hi=hi)))

    # ------------------------------------------------------------------
    # Durability points, crash and recovery
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Force a durable point (group commit)."""
        self.engine.flush_commits()

    def settle(self) -> None:
        """Write back all dirty CPU-cache lines."""
        self.platform.cache.drain()

    def checkpoint(self) -> None:
        self.engine.checkpoint()

    def set_checkpoint_interval(self, txns: int) -> None:
        self.engine.checkpoint_interval_txns = txns

    def crash(self) -> None:
        """Simulated power failure: volatile state — prepared 2PC
        branches included — is gone."""
        self._prepared.clear()
        self.platform.crash()
        self.engine.on_crash()

    def recover(self) -> float:
        """Engine recovery; returns its simulated seconds."""
        return self.engine.recover()

    # ------------------------------------------------------------------
    # Counters and fault injection
    # ------------------------------------------------------------------

    @property
    def now_ns(self) -> float:
        return self.platform.clock.now_ns

    def snapshot(self) -> Dict[str, Any]:
        """Every counter the database aggregates, read at one instant:
        clock, commits/aborts, NVM loads/stores (Figs. 9-11), time per
        category (Fig. 13). Reading them costs no simulated time."""
        stats = self.platform.stats
        return {
            "now_ns": self.platform.clock.now_ns,
            "committed": self.engine.committed_txns,
            "aborted": self.engine.aborted_txns,
            "loads": self.platform.device.loads,
            "stores": self.platform.device.stores,
            "category_ns": {category.value: stats.category_ns(category)
                            for category in Category},
        }

    def storage_breakdown(self) -> Dict[str, int]:
        """Live NVM bytes per component (Fig. 14). Not part of
        :meth:`snapshot`: sizing a checkpoint file goes through the
        simulated filesystem, which advances the clock."""
        return self.engine.storage_breakdown()

    def arm_faults(self, plan: Optional[FaultPlan] = None) -> None:
        self.platform.faults.arm(plan)

    def disarm_faults(self) -> None:
        self.platform.faults.disarm()

    def fault_hits(self) -> Dict[str, int]:
        """Fault-point hit counts since the last :meth:`arm_faults`."""
        return dict(self.platform.faults.hits)

    def faults_fired(self) -> List[Tuple[str, int]]:
        """``(point, hit)`` of every plan trigger that fired, in order."""
        return [(trigger.point, trigger.hit)
                for trigger in self.platform.faults.fired]

    # ------------------------------------------------------------------
    # Observation (driven by repro.obs.session.ObservabilitySession)
    # ------------------------------------------------------------------

    def obs_attach(self, engine: str, workload: str,
                   options: ObservabilityOptions) -> None:
        """Instrument this partition: tracer, sampler, op counters."""
        self._observer = PartitionObserver(self, engine, workload,
                                           options)

    def obs_begin_run(self) -> None:
        self._observer.begin_run()

    def obs_end_run(self) -> Dict[str, Any]:
        return self._observer.end_run()

    def obs_detach(self) -> Tuple[List[Dict[str, Any]], Any]:
        observer, self._observer = self._observer, None
        return observer.detach()

    # ------------------------------------------------------------------
    # Two-phase commit, participant side (protocol: repro.core.twopc)
    # ------------------------------------------------------------------

    def branch_prepare(self, dtxn_id: int, home: int,
                       procedure: StoredProcedure,
                       args: Tuple[Any, ...]) -> Tuple[bool, Any]:
        """Phase 1: run ``procedure`` in an engine transaction that
        stays open, make the prepare record (with the captured redo)
        durable, and return ``(vote, result)``. A no vote
        (``TransactionAborted``) rolls the branch back on the spot; any
        other exception aborts and re-raises."""
        context = twopc.RecordingContext(self.engine, self.begin().txn)
        try:
            result = procedure(context, *args)
        except SimulatedCrash:
            raise
        except TransactionAborted:
            self.abort(context)
            return False, None
        except Exception:
            self.abort(context)
            raise
        twopc.append_record(self.platform.filesystem, twopc.LOG_FILE,
                            ("prepare", dtxn_id, home, context.redo))
        self.platform.faults.fire(twopc.FP_PREPARE_AFTER)
        self._prepared[dtxn_id] = context
        return True, result

    def log_decision(self, dtxn_id: int,
                     participants: Iterable[int]) -> None:
        """Make the commit decision durable (home partition only)."""
        faults = self.platform.faults
        faults.fire(twopc.FP_DECIDE_BEFORE)
        twopc.append_record(self.platform.filesystem,
                            twopc.DECISIONS_FILE,
                            ("commit", dtxn_id, tuple(participants)))
        faults.fire(twopc.FP_DECIDE_AFTER)

    def branch_finish(self, dtxn_id: int, commit: bool) -> None:
        """Phase 2: commit (and force durability) or abort the prepared
        branch, then mark it resolved. The resolved marker is appended
        only after ``flush_commits`` returns, so it is never durable
        before the data it covers."""
        try:
            context = self._prepared.pop(dtxn_id)
        except KeyError:
            raise TransactionStateError(
                f"no prepared branch for distributed transaction "
                f"{dtxn_id} on partition {self.partition_id}") from None
        if commit:
            self.commit(context)
            self.engine.flush_commits()
        else:
            self.abort(context)
        twopc.append_record(self.platform.filesystem, twopc.LOG_FILE,
                            ("resolved", dtxn_id))

    def pending_prepares(self) -> List[Tuple[int, int]]:
        """In-doubt branches after a crash: ``[(dtxn_id, home), ...]``
        — prepare records without a resolved marker."""
        return [(dtxn_id, home) for dtxn_id, home, __
                in twopc.pending_prepares(self.platform.filesystem)]

    def committed_decisions(self, dtxn_ids: Iterable[int]) -> List[int]:
        """Those of ``dtxn_ids`` this home partition durably decided
        to commit (presumed abort: the rest aborted)."""
        return sorted(twopc.committed_decisions(
            self.platform.filesystem, dtxn_ids))

    def resolve_prepared(self, decisions: Dict[int, bool]) -> float:
        """Finish every in-doubt branch (its open engine transaction is
        gone; engine recovery already rolled it back): reapply the redo
        of the committed ones, mark all resolved. Returns the simulated
        seconds it took."""
        filesystem = self.platform.filesystem
        start_ns = self.now_ns
        for dtxn_id, __, redo in twopc.pending_prepares(filesystem):
            if decisions.get(dtxn_id, False):
                self.execute(twopc.replay_redo, redo,
                             self.engine._schema)
                self.engine.flush_commits()
            twopc.append_record(filesystem, twopc.LOG_FILE,
                                ("resolved", dtxn_id))
        return (self.now_ns - start_ns) / 1e9
