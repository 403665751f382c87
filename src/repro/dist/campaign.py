"""Crash-recovery campaign for the two-phase commit protocol.

The storage campaign (:mod:`repro.fault.campaign`) proves each engine
survives a crash at every in-operation instant; this module proves the
*distributed* commit path does too. A scripted workload of pair-writes
— each transaction upserts the same key on **two** partitions through
:meth:`Database.execute_distributed
<repro.core.database.Database.execute_distributed>` — runs against a
two-partition database, crashing at every sampled hit of the three 2PC
fault points:

* ``twopc.prepare.after`` — a participant voted yes and made its
  prepare record durable, but the protocol had not yet decided;
* ``twopc.decide.before`` — all participants prepared, the decision
  was *about* to become durable (presumed abort must roll back);
* ``twopc.decide.after`` — the commit decision is durable but no
  participant has applied it (recovery must finish the commit).

After every crash the database recovers (engine recovery plus the
coordinator's in-doubt resolution) and a tracking oracle checks the
distributed invariants:

* every **acknowledged** transaction's write survives on *both*
  partitions;
* the interrupted transaction is **atomic across partitions** — its
  write is either applied on both or on neither (a lost commit shows
  up as "applied on one", a phantom as "applied but never decided");
* no keys outside the script appear.

The campaign reads everything through the database and partition
contract, so ``factory`` picks the transport: the in-process
:class:`~repro.core.database.Database` (the default — deterministic
and fast enough to sweep every coordinate of all eight engines
serially) or :class:`~repro.dist.coordinator.ShardedDatabase`, where
the fault plan crosses the pipe and fires inside an executor process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import CacheConfig, EngineConfig, PlatformConfig
from ..core.database import Database
from ..core.schema import Column, ColumnType, Schema
from ..errors import SimulatedCrash, TransactionAborted
from ..fault.injector import FaultPlan
from ..core.twopc import (FP_DECIDE_AFTER, FP_DECIDE_BEFORE,
                          FP_PREPARE_AFTER)
from .txn import Branch, DistributedTransaction

__all__ = ["TwoPCCampaignResult", "TwoPCCampaignReport",
           "run_twopc_campaign", "build_pair_script", "TWOPC_POINTS"]

TABLE = "twopc_pairs"

#: Keys the pair-writes draw from — small enough that most transactions
#: update a key with history, exercising redo replay over both the
#: insert and the update record shapes.
KEY_SPACE = 6

#: The fault points this campaign sweeps.
TWOPC_POINTS = (FP_PREPARE_AFTER, FP_DECIDE_BEFORE, FP_DECIDE_AFTER)

#: Recovery attempts before the oracle declares the database stuck.
MAX_NESTED_RECOVERIES = 10


def _schema() -> Schema:
    return Schema.build(
        TABLE,
        [Column("id", ColumnType.INT),
         Column("v", ColumnType.STRING, capacity=16)],
        primary_key=["id"])


def _make_database(engine: str, seed: int,
                   factory: Callable[..., Database]) -> Database:
    """Same harsh configuration as the storage campaign: group commit
    of one (acknowledged == durable, the oracle's invariant) and no
    lucky cache-line survival."""
    platform_config = PlatformConfig(
        seed=seed,
        cache=CacheConfig(crash_eviction_probability=0.0),
        # The hybrid engine refuses to run without a DRAM tier.
        dram_capacity_bytes=(32 * 1024 * 1024
                             if engine.startswith("hybrid") else 0))
    engine_config = EngineConfig(
        group_commit_size=1,
        checkpoint_interval_txns=12,
        memtable_threshold_bytes=512,
        lsm_max_runs_per_level=2,
        btree_node_size=256,
        cow_btree_node_size=512,
        nvm_cow_node_size=512)
    db = factory(engine=engine, partitions=2,
                 platform_config=platform_config,
                 engine_config=engine_config)
    db.create_table(_schema())
    return db


def pair_write(ctx, key: int, value: str):
    """The branch body both participants run: upsert ``key``."""
    if ctx.get(TABLE, key) is None:
        ctx.insert(TABLE, {"id": key, "v": value})
    else:
        ctx.update(TABLE, key, {"v": value})
    return value


def build_pair_script(seed: int, ops: int
                      ) -> List[Tuple[int, str, int]]:
    """The deterministic workload: ``(key, value, home_partition)``
    triples. Every value is unique so the oracle can tell which version
    of a key survived; the home alternates so decision records land on
    both partitions."""
    rng = random.Random(f"twopc-crashtest-{seed}")
    return [(rng.randrange(KEY_SPACE), f"v{i:04d}", i % 2)
            for i in range(ops)]


def _pair_dtxn(key: int, value: str, home: int) -> DistributedTransaction:
    remote = 1 - home
    return DistributedTransaction(
        Branch(home, pair_write, (key, value)),
        (Branch(remote, pair_write, (key, value)),))


@dataclass
class TwoPCCampaignResult:
    """What one campaign run (counting or coordinate) observed."""

    engine: str
    seed: int
    triggers: Tuple[Tuple[str, int], ...]
    crashes: int = 0
    recoveries: int = 0
    nested_crashes: int = 0
    txns_acked: int = 0
    #: Fault-point name -> max per-partition hit count (a trigger can
    #: only fire against one injector's counter, so the per-partition
    #: maximum — not the cross-partition sum — bounds plannable hits).
    hits: Dict[str, int] = field(default_factory=dict)
    fired: Tuple[Tuple[str, int], ...] = ()
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "seed": self.seed,
            "triggers": [list(pair) for pair in self.triggers],
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "nested_crashes": self.nested_crashes,
            "txns_acked": self.txns_acked,
            "hits": dict(sorted(self.hits.items())),
            "fired": [list(pair) for pair in self.fired],
            "violations": list(self.violations),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class _TwoPCSpec:
    """One campaign run; empty ``triggers`` means counting mode."""

    engine: str
    seed: int = 7
    ops: int = 48
    triggers: Tuple[Tuple[str, int], ...] = ()
    factory: Callable[..., Database] = Database

    def execute(self) -> TwoPCCampaignResult:
        result = TwoPCCampaignResult(engine=self.engine, seed=self.seed,
                                     triggers=self.triggers)
        db = _make_database(self.engine, self.seed, self.factory)
        try:
            self._run_script(db, result)
        finally:
            db.disarm_faults()
            db.close()
        return result

    # ------------------------------------------------------------------
    # Script + oracle
    # ------------------------------------------------------------------

    def _run_script(self, db: Database,
                    result: TwoPCCampaignResult) -> None:
        db.arm_faults(FaultPlan(self.triggers))
        expected: Dict[int, str] = {}
        script = build_pair_script(self.seed, self.ops)
        index = 0
        while index < len(script):
            key, value, home = script[index]
            try:
                db.execute_distributed(_pair_dtxn(key, value, home))
            except SimulatedCrash:
                result.crashes += 1
                self._recover(db, result)
                # The interrupted transaction was never acknowledged,
                # so either outcome is legal — but it must be atomic
                # across BOTH partitions. Read each side to learn
                # which way recovery decided.
                applied = self._pair_state(db, key, value,
                                           expected.get(key),
                                           result, f"op {index}")
                if applied:
                    expected[key] = value
                    index += 1
                self._verify(db, expected, result,
                             f"after crash at op {index}")
                continue
            except TransactionAborted:
                # A yes-vote is unconditional for pair-writes; a veto
                # means a participant saw state the oracle did not.
                result.violations.append(
                    f"op {index}: unexpected abort for key {key}")
                index += 1
                continue
            expected[key] = value
            result.txns_acked += 1
            index += 1
        # Final clean crash + recovery: catches any acked commit whose
        # durability silently depended on volatile state.
        db.crash()
        result.crashes += 1
        self._recover(db, result)
        self._verify(db, expected, result, "final")
        hits = [partition.fault_hits() for partition in db.partitions]
        result.hits = {
            point: max(side.get(point, 0) for side in hits)
            for point in TWOPC_POINTS
            if any(side.get(point, 0) for side in hits)}
        result.fired = tuple(
            trigger for partition in db.partitions
            for trigger in partition.faults_fired())

    def _recover(self, db: Database,
                 result: TwoPCCampaignResult) -> None:
        for __ in range(MAX_NESTED_RECOVERIES):
            try:
                db.recover()
            except SimulatedCrash:
                result.crashes += 1
                result.nested_crashes += 1
                continue
            result.recoveries += 1
            return
        result.violations.append(
            f"stuck-recovery: not recovered after "
            f"{MAX_NESTED_RECOVERIES} attempts")

    def _pair_state(self, db: Database, key: int, value: str,
                    previous: Optional[str],
                    result: TwoPCCampaignResult, when: str) -> bool:
        """Did the interrupted pair-write commit? Violations if the two
        partitions disagree (a partial commit) or a side shows a value
        that is neither the new nor the last-acknowledged one."""
        sides = []
        for pid in (0, 1):
            row = db.get(TABLE, key, partition=pid)
            sides.append(None if row is None else row["v"])
        states = []
        for pid, side in enumerate(sides):
            if side == value:
                states.append("new")
            elif side == previous:
                states.append("old")
            else:
                states.append("corrupt")
                result.violations.append(
                    f"{when}: partition {pid} key {key} is {side!r}, "
                    f"expected {value!r} or {previous!r}")
        if states[0] != states[1] and "corrupt" not in states:
            result.violations.append(
                f"{when}: partial commit for key {key}: "
                f"partition 0 is {states[0]}, partition 1 is "
                f"{states[1]}")
        return states[0] == "new" and states[1] == "new"

    def _verify(self, db: Database, expected: Dict[int, str],
                result: TwoPCCampaignResult, when: str) -> None:
        """The oracle: both partitions must hold exactly the expected
        (acknowledged) keys at their latest values."""
        for pid in (0, 1):
            rows = {key: values["v"] for key, values
                    in db.partitions[pid].scan(TABLE)}
            for key, value in sorted(expected.items()):
                if key not in rows:
                    result.violations.append(
                        f"{when}: partition {pid} lost committed key "
                        f"{key} (expected {value!r})")
                elif rows[key] != value:
                    result.violations.append(
                        f"{when}: partition {pid} key {key} is "
                        f"{rows[key]!r}, expected {value!r}")
            for key in sorted(rows):
                if key not in expected:
                    result.violations.append(
                        f"{when}: partition {pid} phantom key {key} = "
                        f"{rows[key]!r}")


# ----------------------------------------------------------------------
# Campaign orchestration
# ----------------------------------------------------------------------

@dataclass
class TwoPCCampaignReport:
    """Everything a 2PC crash campaign learned."""

    engines: Tuple[str, ...]
    seed: int
    counting: Dict[str, TwoPCCampaignResult]
    results: List[TwoPCCampaignResult]
    #: engine -> 2PC points the counting run never reached.
    uncovered: Dict[str, List[str]]

    @property
    def violations(self) -> List[str]:
        found: List[str] = []
        for engine, counting in sorted(self.counting.items()):
            found.extend(f"{engine}[counting]: {violation}"
                         for violation in counting.violations)
        for result in self.results:
            label = "+".join(f"{point}:{hit}"
                             for point, hit in result.triggers)
            found.extend(f"{result.engine}[{label}]: {violation}"
                         for violation in result.violations)
        return found

    @property
    def ok(self) -> bool:
        return not self.violations and not any(self.uncovered.values())

    def point_rows(self) -> List[List[str]]:
        """Per-(engine, point) aggregation for the CLI table."""
        stats: Dict[Tuple[str, str], Dict[str, int]] = {}
        for result in self.results:
            target = result.triggers[-1][0] if result.triggers else "-"
            entry = stats.setdefault((result.engine, target), {
                "coords": 0, "crashes": 0, "violations": 0})
            entry["coords"] += 1
            entry["crashes"] += result.crashes
            entry["violations"] += len(result.violations)
        rows = []
        for (engine, point), entry in sorted(stats.items()):
            status = "VIOLATED" if entry["violations"] else "ok"
            rows.append([engine, point, str(entry["coords"]),
                         str(entry["crashes"]),
                         str(entry["violations"]), status])
        for engine in self.engines:
            for point in self.uncovered.get(engine, []):
                rows.append([engine, point, "0", "0", "0", "UNCOVERED"])
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "repro-twopc-crashtest-report",
            "engines": list(self.engines),
            "seed": self.seed,
            "ok": self.ok,
            "uncovered": {engine: list(points) for engine, points
                          in sorted(self.uncovered.items())},
            "violations": self.violations,
            "counting": {engine: counting.to_dict()
                         for engine, counting
                         in sorted(self.counting.items())},
            "coordinates": [result.to_dict()
                            for result in self.results],
        }


def plan_coordinates(hits: Dict[str, int], max_hits_per_point: int = 3
                     ) -> List[Tuple[Tuple[str, int], ...]]:
    """Sampled ``(point, hit)`` coordinates: for every reached 2PC
    point, up to ``max_hits_per_point`` hits (always the first and the
    last, plus the middle)."""
    coordinates: List[Tuple[Tuple[str, int], ...]] = []
    for point in TWOPC_POINTS:
        total = hits.get(point, 0)
        if total <= 0:
            continue
        sampled = {1, total, (1 + total) // 2}
        for hit in sorted(sampled)[:max_hits_per_point]:
            coordinates.append(((point, hit),))
    return coordinates


def run_twopc_campaign(engines: Sequence[str], seed: int = 7,
                       ops: int = 48, max_hits_per_point: int = 3,
                       factory: Callable[..., Database] = Database
                       ) -> TwoPCCampaignReport:
    """The full 2PC campaign: count fault-point hits per engine, then
    crash at every sampled ``(point, hit)`` coordinate and verify the
    distributed-commit oracle after recovery. ``factory`` builds the
    database (``Database`` or ``ShardedDatabase``)."""
    counting: Dict[str, TwoPCCampaignResult] = {}
    uncovered: Dict[str, List[str]] = {}
    results: List[TwoPCCampaignResult] = []
    for engine in engines:
        count_result = _TwoPCSpec(engine=engine, seed=seed, ops=ops,
                                  factory=factory).execute()
        counting[engine] = count_result
        uncovered[engine] = [
            point for point in TWOPC_POINTS
            if count_result.hits.get(point, 0) <= 0]
        for triggers in plan_coordinates(count_result.hits,
                                         max_hits_per_point):
            results.append(
                _TwoPCSpec(engine=engine, seed=seed, ops=ops,
                           triggers=triggers,
                           factory=factory).execute())
    return TwoPCCampaignReport(engines=tuple(engines), seed=seed,
                               counting=counting, results=results,
                               uncovered=uncovered)
