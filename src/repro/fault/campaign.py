"""Systematic crash-point recovery campaigns: the one campaign kernel.

A campaign answers the question the paper's Section 5.4 recovery
experiments leave open: does every engine actually *survive* a power
failure at every interesting instant, not just recover quickly? It

1. runs a scripted workload once per engine with the fault injector in
   **counting mode**, recording how often every registered fault point
   is hit;
2. re-runs the identical workload once per ``(point, hit)``
   **coordinate**, arming a :class:`~repro.fault.injector.FaultPlan`
   that crashes the platform mid-operation at exactly that instant;
3. recovers — possibly through *nested* crashes when the plan also
   targets a recovery-phase point — and checks a tracking **oracle**:
   every acknowledged step's effect must survive on every partition,
   the interrupted step must be atomic (fully applied or fully absent,
   disambiguated by reading the row back), and no phantom rows may
   appear.

Coordinates fan out across worker processes through the experiment
scheduler (:func:`~repro.harness.scheduler.run_sweep`), so a campaign
is parallel, deterministic, and crash-isolated like any other sweep.

The loop is parameterised only by a :class:`Workload` — what one step
does and which fault points it should reach. There are exactly two:
:class:`SingleRow` here (single-operation transactions against one
partition: the storage campaign) and
:class:`repro.dist.campaign.PairWrite` (a two-partition pair-write
through two-phase commit). Everything else — the harsh configuration,
arming, nested recovery, the oracle, coordinate planning, the report —
is this module, so a new oracle plugs in once.

The campaign schema is deliberately a single table without secondary
indexes: the NVM-CoW engine's master-record flip is atomic per
directory, not across directories, so multi-index batches have a
documented partial-flip window (see ``docs/fault-injection.md``).

This module is imported explicitly (``from repro.fault import
campaign``) rather than re-exported by the package, because it pulls in
the database/engine stack that itself imports the injector.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Type)

from ..config import CacheConfig, EngineConfig, PlatformConfig
from ..core.database import Database
from ..core.schema import Column, ColumnType, Schema
from ..errors import SimulatedCrash, StorageEngineError, TransactionError
from ..harness.scheduler import PointOutcome, run_sweep
from ..obs import bus as _bus
from ..obs.bus import DEFAULT_HEARTBEAT_S, EventBus, Publisher
from ..obs.profiler import PhaseProfiler
from .injector import FaultPlan, fault_points_for_engine

__all__ = ["Workload", "SingleRow", "CampaignSpec", "CampaignPointResult",
           "CampaignReport", "run_crash_campaign", "build_script",
           "plan_coordinates"]

#: Keys the scripted workload draws from — small enough that updates
#: and deletes keep landing on rows with history.
KEY_SPACE = 25

#: Key used by the post-recovery operational probe; never produced by
#: a script, so the oracle ignores it.
SENTINEL_KEY = 9999

#: Recovery attempts before the oracle declares the database stuck.
MAX_NESTED_RECOVERIES = 10

#: One script step: ``(how, key, value)``. The kernel tracks the
#: ``key -> value`` effect (``None`` deletes the key); ``how`` belongs
#: to the workload (the operation name, the home partition, ...).
Step = Tuple[Any, int, Optional[str]]


class Workload:
    """The seam between the campaign kernel and what it crashes: a
    schema and partition count, a deterministic script, how to apply
    one step, and the fault points the script must reach. The oracle
    (:meth:`landed`, :meth:`verify`) reads the table through that
    schema and partition count: both workloads keep the same ``key ->
    value`` map on every partition, so at two partitions it is the
    distributed-commit oracle. Stateless: the class itself is what a
    spec carries (it pickles by reference)."""

    #: Slug prefix, spec ``kind``, observability label, and the
    #: report's ``kind`` (``repro-<name>-report``).
    name: str
    title: str
    table: str
    partitions = 1
    #: ``points(engine)``: the fault points a counting run must reach.
    points: Callable[[str], Sequence[str]]
    #: ``build_script(seed, ops)``: the deterministic steps.
    build_script: Callable[[int, int], List[Step]]
    #: ``apply(db, step)``: run one step as one transaction that is
    #: acknowledged only once durable.
    apply: Callable[[Database, Step], None]

    @classmethod
    def schema(cls) -> Schema:
        return Schema.build(
            cls.table,
            [Column("id", ColumnType.INT),
             Column("v", ColumnType.STRING, capacity=16)],
            primary_key=["id"])

    @classmethod
    def landed(cls, db: Database, step: Step, previous: Optional[str],
               violations: List[str], when: str) -> bool:
        """Did the interrupted step commit? It was never acknowledged,
        so either outcome is legal — but it must be atomic across every
        partition. Read each side to learn which way recovery decided:
        violations if a side shows a value that is neither the new nor
        the last-acknowledged one, or the partitions disagree (a
        partial commit)."""
        __, key, value = step
        sides = []
        for pid in range(cls.partitions):
            row = db.get(cls.table, key, partition=pid)
            side = None if row is None else row["v"]
            sides.append(side)
            if side not in (value, previous):
                violations.append(
                    f"{when}: partition {pid} key {key} is {side!r}, "
                    f"expected {value!r} or {previous!r}")
        if len(set(sides)) > 1:
            violations.append(
                f"{when}: partial commit for key {key}: the "
                f"partitions hold {sides!r}")
        return all(side == value for side in sides)

    @classmethod
    def verify(cls, db: Database, expected: Dict[int, str],
               violations: List[str], when: str) -> None:
        """The oracle: every partition must hold exactly the expected
        (acknowledged) rows at their latest values."""
        for pid in range(cls.partitions):
            where = f"partition {pid} " if cls.partitions > 1 else ""
            rows = {key: values["v"] for key, values
                    in db.partitions[pid].scan(cls.table)}
            for key, value in sorted(expected.items()):
                if key not in rows:
                    violations.append(
                        f"{when}: {where}lost committed row {key} "
                        f"(expected {value!r})")
                elif rows[key] != value:
                    violations.append(
                        f"{when}: {where}row {key} is {rows[key]!r}, "
                        f"expected {value!r}")
            for key in sorted(rows):
                if key not in expected and key != SENTINEL_KEY:
                    violations.append(
                        f"{when}: {where}phantom row {key} = "
                        f"{rows[key]!r}")


def build_script(seed: int, ops: int) -> List[Step]:
    """The deterministic single-operation workload: ``(op, key,
    value)`` triples mixing inserts, updates, and deletes over a small
    key space. Every written value is unique, so the oracle can tell
    *which* version of a row survived."""
    rng = random.Random(f"crashtest-{seed}")
    live: set = set()
    script: List[Step] = []
    for i in range(ops):
        value = f"v{i:04d}"
        choices = []
        if len(live) < KEY_SPACE:
            choices.append("insert")
        if live:
            choices.extend(["update", "update", "delete"])
        op = rng.choice(choices)
        if op == "insert":
            key = rng.choice(
                [k for k in range(KEY_SPACE) if k not in live])
            live.add(key)
        else:
            key = rng.choice(sorted(live))
            if op == "delete":
                live.discard(key)
        script.append((op, key, None if op == "delete" else value))
    return script


class SingleRow(Workload):
    """The storage campaign: one insert/update/delete per transaction
    against a single partition, sweeping the engine's own fault
    points."""

    name = "crashtest"
    title = "Crash campaign"
    table = "crashtest"
    points = staticmethod(fault_points_for_engine)
    build_script = staticmethod(build_script)

    @classmethod
    def apply(cls, db: Database, step: Step) -> None:
        op, key, value = step
        if op == "insert":
            db.insert(cls.table, {"id": key, "v": value})
        elif op == "update":
            db.update(cls.table, key, {"v": value})
        else:
            db.delete(cls.table, key)
        # Acknowledged == executed: a transport that posts its writes
        # reports the power failure here, not at some later verb.
        db.barrier()


def _make_database(engine: str, seed: int,
                   workload: Type[Workload] = SingleRow,
                   factory: Callable[..., Database] = Database
                   ) -> Database:
    """A deliberately harsh configuration: every commit is durable the
    moment it is acknowledged (group commit of 1 — the oracle's
    invariant), checkpoints/flushes/compactions all happen within a
    short script, and *no* dirty cache line survives a crash by luck
    (eviction probability 0), so a missing fence always loses data.
    ``factory`` picks the transport (``Database`` or
    ``ShardedDatabase``)."""
    platform_config = PlatformConfig.for_engine(
        engine, seed=seed,
        cache=CacheConfig(crash_eviction_probability=0.0))
    engine_config = EngineConfig(
        group_commit_size=1,
        checkpoint_interval_txns=12,
        memtable_threshold_bytes=512,
        lsm_max_runs_per_level=2,
        btree_node_size=256,
        cow_btree_node_size=512,
        nvm_cow_node_size=512)
    db = factory(engine=engine, partitions=workload.partitions,
                 platform_config=platform_config,
                 engine_config=engine_config)
    db.create_table(workload.schema())
    return db


@dataclass
class CampaignPointResult:
    """What one campaign run (counting or coordinate) observed."""

    engine: str
    seed: int
    triggers: Tuple[Tuple[str, int], ...]
    #: Simulated crashes, including nested crash-during-recovery ones.
    crashes: int = 0
    recoveries: int = 0
    nested_crashes: int = 0
    ops_applied: int = 0
    #: Fault-point name -> times the workload passed through it: the
    #: per-partition maximum (a trigger can only fire against one
    #: injector's counter, so the maximum — not the cross-partition
    #: sum — bounds the plannable hits).
    hits: Dict[str, int] = field(default_factory=dict)
    #: ``(point, hit)`` triggers that actually fired.
    fired: Tuple[Tuple[str, int], ...] = ()
    #: Oracle violations — empty means the run survived intact.
    violations: List[str] = field(default_factory=list)
    #: Phase profile (wall-vs-sim attribution; telemetry runs only).
    phases: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["ok"] = self.ok
        # Wall-clock side-band data: only present on telemetry runs, so
        # default campaign reports stay identical with or without it.
        if self.phases is None:
            del payload["phases"]
        return payload


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign run: a workload's script against one engine, with
    an optional fault plan. Picklable, deterministic, and runnable by
    the experiment scheduler (it provides its own :meth:`execute`)."""

    engine: str
    seed: int = 7
    ops: int = 64
    #: ``(point, hit)`` pairs; empty means counting mode (no crashes).
    triggers: Tuple[Tuple[str, int], ...] = ()
    observe: bool = False
    workload: Type[Workload] = SingleRow
    factory: Callable[..., Database] = Database

    def slug(self) -> str:
        prefix = f"{self.workload.name}-{self.engine}-s{self.seed}-"
        if not self.triggers:
            return prefix + "count"
        coordinate = "+".join(f"{point}@{hit}"
                              for point, hit in self.triggers)
        return prefix + coordinate.replace('.', '_')

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.workload.name,
            "engine": self.engine,
            "seed": self.seed,
            "ops": self.ops,
            "triggers": [list(pair) for pair in self.triggers],
        }

    # ------------------------------------------------------------------
    # Execution + oracle
    # ------------------------------------------------------------------

    def execute(self, obs=None,
                database: Optional[Database] = None,
                telemetry=None) -> CampaignPointResult:
        """Run the scripted workload under this spec's fault plan and
        verify the oracle after every recovery. ``database`` lets tests
        substitute a sabotaged engine; it must use the workload's
        schema. ``telemetry`` (a :class:`~repro.obs.bus.Publisher`)
        streams heartbeats — with crash/recovery counters — and phase
        transitions while the point runs, and attaches the phase
        profile to the result."""
        result = CampaignPointResult(engine=self.engine, seed=self.seed,
                                     triggers=self.triggers)
        profiler = PhaseProfiler.for_run(telemetry)
        with profiler.phase("setup"):
            db = database if database is not None \
                else _make_database(self.engine, self.seed,
                                    self.workload, self.factory)
        try:
            if obs is not None:
                obs.attach(db, self.engine, self.workload.name)
            with profiler.heartbeats(
                    db, extra=lambda: {"crashes": result.crashes,
                                       "recoveries": result.recoveries,
                                       "ops": result.ops_applied}):
                self._run_script(db, result, profiler)
        finally:
            # Also on an engine bug's traceback: a sharded database
            # owns executor processes that must not outlive the point.
            db.disarm_faults()
            if obs is not None:
                obs.detach(db)
            # Wall time only: a closed database has no clock to read
            # (a sharded one's executors are already shut down).
            with profiler.phase("teardown"):
                db.close()
        profiler.finish(result)
        return result

    def _run_script(self, db: Database, result: CampaignPointResult,
                    profiler: PhaseProfiler) -> None:
        workload = self.workload
        db.arm_faults(FaultPlan(self.triggers))
        expected: Dict[int, str] = {}

        def acknowledge(key: int, value: Optional[str]) -> None:
            if value is None:
                expected.pop(key, None)
            else:
                expected[key] = value

        def verify(when: str) -> None:
            with profiler.phase("verify", db):
                workload.verify(db, expected, result.violations, when)

        with profiler.phase("load", db):
            script = workload.build_script(self.seed, self.ops)
        index = 0
        with profiler.phase("run", db):
            while index < len(script):
                step = how, key, value = script[index]
                try:
                    workload.apply(db, step)
                except SimulatedCrash:
                    self._recover(db, result, profiler)
                    if workload.landed(db, step, expected.get(key),
                                       result.violations, f"op {index}"):
                        acknowledge(key, value)
                        index += 1
                    verify(f"after crash at op {index}")
                    continue
                except (StorageEngineError, TransactionError) as exc:
                    # A correct engine never rejects a script step (and
                    # a 2PC participant never vetoes one): the oracle
                    # keeps `expected` in lockstep with the database.
                    # An error here means recovery silently diverged.
                    result.violations.append(
                        f"op {index} ({how} {key}): "
                        f"{type(exc).__name__}: {exc}")
                    break
                acknowledge(key, value)
                result.ops_applied += 1
                index += 1
        # Final clean crash + recovery: exercises the recovery-phase
        # fault points every run and catches any commit whose
        # durability silently depended on volatile state.
        db.crash()
        self._recover(db, result, profiler)
        verify("final")
        self._probe(db, result, profiler)
        # Through the Partition contract, so the same lines serve an
        # executor process on the far side of a pipe.
        sides = [partition.fault_hits() for partition in db.partitions]
        result.hits = {
            point: max(side.get(point, 0) for side in sides)
            for point in workload.points(self.engine)
            if any(side.get(point, 0) for side in sides)}
        result.fired = tuple(
            tuple(trigger) for partition in db.partitions
            for trigger in partition.faults_fired())

    def _recover(self, db: Database, result: CampaignPointResult,
                 profiler: PhaseProfiler) -> None:
        """Recover from the crash that just happened, riding out
        nested crash-during-recovery faults — the one place idempotent
        redo is exercised, so every workload inherits it."""
        result.crashes += 1
        with profiler.phase("recovery", db):
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

    def _probe(self, db: Database, result: CampaignPointResult,
               profiler: PhaseProfiler) -> None:
        """Operational sentinel: the recovered database must still take
        writes, not just answer reads."""
        table = self.workload.table
        for __ in range(2):
            try:
                if db.get(table, SENTINEL_KEY) is None:
                    db.insert(table, {"id": SENTINEL_KEY, "v": "probe"})
                row = db.get(table, SENTINEL_KEY)
                if row is None or row["v"] != "probe":
                    result.violations.append(
                        "sentinel: probe row unreadable after recovery")
                db.delete(table, SENTINEL_KEY)
                return
            except SimulatedCrash:
                # A leftover trigger fired mid-probe; recover and retry.
                self._recover(db, result, profiler)
            except Exception as exc:
                result.violations.append(
                    f"sentinel: {type(exc).__name__}: {exc}")
                return
        result.violations.append(
            "sentinel: probe kept crashing after recovery")


# ----------------------------------------------------------------------
# Campaign orchestration
# ----------------------------------------------------------------------

def plan_coordinates(points: Sequence[str], hits: Dict[str, int],
                     max_hits_per_point: int = 3
                     ) -> List[Tuple[Tuple[str, int], ...]]:
    """Turn a counting run's hit profile into the crash coordinates to
    explore: for every in-operation point, up to ``max_hits_per_point``
    sampled hits (always the first and the last); for every
    recovery-phase point, a nested plan that crashes in-operation
    first and then again during the resulting recovery."""
    reached = [point for point in points if hits.get(point, 0) > 0]
    data_points = [point for point in reached
                   if not point.startswith("recovery.")]
    coordinates: List[Tuple[Tuple[str, int], ...]] = []
    for point in data_points:
        sampled = {1, hits[point], (1 + hits[point]) // 2}
        for hit in sorted(sampled)[:max_hits_per_point]:
            coordinates.append(((point, hit),))
    first_crash = ((data_points[0], 1),) if data_points else ()
    for point in reached:
        if point.startswith("recovery."):
            coordinates.append(first_crash + ((point, 1),))
    return coordinates


@dataclass
class CampaignReport:
    """Everything a crash campaign learned, per engine and per point."""

    engines: Tuple[str, ...]
    seed: int
    counting: Dict[str, CampaignPointResult]
    outcomes: List[PointOutcome]
    #: engine -> registered points the counting run never even reached.
    uncovered: Dict[str, List[str]]
    workload: Type[Workload] = SingleRow

    @property
    def violations(self) -> List[str]:
        found: List[str] = []
        for engine, counting in sorted(self.counting.items()):
            found.extend(f"{engine}[counting]: {violation}"
                         for violation in counting.violations)
        for outcome in self.outcomes:
            if outcome.result is not None:
                found.extend(
                    f"{outcome.spec.engine}[{outcome.spec.slug()}]: "
                    f"{violation}"
                    for violation in outcome.result.violations)
        return found

    @property
    def failures(self) -> List[str]:
        return [f"{outcome.spec.slug()}: {outcome.error}"
                for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failures \
            and not any(self.uncovered.values())

    @property
    def profiles(self) -> List[Dict[str, Any]]:
        """Phase profiles of every run that recorded one."""
        results = list(self.counting.values()) + [
            outcome.result for outcome in self.outcomes
            if outcome.result is not None]
        return [result.phases for result in results if result.phases]

    def point_rows(self) -> List[List[str]]:
        """Per-(engine, point) aggregation for the CLI table."""
        groups: Dict[Tuple[str, str], List[PointOutcome]] = {}
        for outcome in self.outcomes:
            spec = outcome.spec
            target = spec.triggers[-1][0] if spec.triggers else "-"
            groups.setdefault((spec.engine, target), []).append(outcome)
        rows = []
        for (engine, point), outcomes in sorted(groups.items()):
            results = [outcome.result for outcome in outcomes
                       if outcome.result is not None]
            violations = sum(len(result.violations) for result in results)
            status = "ok"
            if not all(outcome.ok for outcome in outcomes):
                status = "FAILED"
            elif violations:
                status = "VIOLATED"
            rows.append([engine, point, str(len(outcomes)),
                         str(sum(result.crashes for result in results)),
                         str(violations), status])
        rows.extend([engine, point, "0", "0", "0", "UNCOVERED"]
                    for engine in self.engines
                    for point in self.uncovered.get(engine, []))
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": f"repro-{self.workload.name}-report",
            "engines": list(self.engines),
            "seed": self.seed,
            "ok": self.ok,
            "uncovered": {engine: list(points) for engine, points
                          in sorted(self.uncovered.items())},
            "violations": self.violations,
            "failures": self.failures,
            "counting": {engine: counting.to_dict() for engine, counting
                         in sorted(self.counting.items())},
            "coordinates": [{
                "spec": outcome.spec.to_dict(),
                "ok": outcome.ok,
                "error": outcome.error,
                "attempts": outcome.attempts,
                "result": (outcome.result.to_dict()
                           if outcome.result is not None else None),
            } for outcome in self.outcomes],
        }


def run_crash_campaign(engines: Sequence[str], seed: int = 7,
                       ops: int = 64, jobs: int = 1,
                       max_hits_per_point: int = 3,
                       timeout_s: Optional[float] = None,
                       retries: int = 1, observe: bool = False,
                       artifacts_dir: Optional[str] = None,
                       bus: Optional[EventBus] = None,
                       heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                       workload: Type[Workload] = SingleRow,
                       factory: Callable[..., Database] = Database
                       ) -> CampaignReport:
    """The full campaign: count fault-point hits per engine, then
    systematically crash at every sampled ``(point, hit)`` coordinate
    and verify recovery with the oracle.

    ``bus`` streams live telemetry: the counting phase publishes
    ``campaign_started`` / per-engine ``campaign_counted`` events plus
    its own heartbeats, and the coordinate sweep streams point
    lifecycle events and worker heartbeats like any other sweep."""
    counting: Dict[str, CampaignPointResult] = {}
    uncovered: Dict[str, List[str]] = {}
    specs: List[CampaignSpec] = []
    if bus is not None:
        bus.publish(_bus.CAMPAIGN_STARTED, source="campaign",
                    engines=list(engines), seed=seed, ops=ops)
    for engine in engines:
        publisher = Publisher(bus.publish, source=f"count-{engine}",
                              heartbeat_s=heartbeat_s) \
            if bus is not None else None
        count_spec = CampaignSpec(engine=engine, seed=seed, ops=ops,
                                  workload=workload, factory=factory)
        count_result = count_spec.execute(telemetry=publisher)
        counting[engine] = count_result
        points = workload.points(engine)
        uncovered[engine] = [point for point in points
                             if count_result.hits.get(point, 0) <= 0]
        coordinates = plan_coordinates(points, count_result.hits,
                                       max_hits_per_point)
        for triggers in coordinates:
            specs.append(CampaignSpec(engine=engine, seed=seed, ops=ops,
                                      triggers=triggers,
                                      observe=observe, workload=workload,
                                      factory=factory))
        if bus is not None:
            bus.publish(_bus.CAMPAIGN_COUNTED, source=f"count-{engine}",
                        engine=engine, coordinates=len(coordinates),
                        points_hit=len(count_result.hits),
                        uncovered=len(uncovered[engine]))
    outcomes = run_sweep(specs, jobs=jobs, timeout_s=timeout_s,
                         retries=retries, observe=observe,
                         artifacts_dir=artifacts_dir, bus=bus,
                         heartbeat_s=heartbeat_s)
    return CampaignReport(engines=tuple(engines), seed=seed,
                          counting=counting, outcomes=outcomes,
                          uncovered=uncovered, workload=workload)
