"""Workload runners producing the measurements the paper reports.

Measurement protocol (Section 5): the database is loaded first, then
counters are snapshotted, the pre-generated fixed workload runs, and
the deltas are reported — throughput in transactions per *simulated*
second, NVM loads/stores from the device counters, the execution-time
breakdown from the category stats, and the peak storage footprint.

The single entry point is :func:`run`, which executes one
:class:`~repro.harness.spec.ExperimentSpec`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..config import CacheConfig, PlatformConfig
from ..core.database import Database
from ..obs.bus import Publisher
from ..obs.profiler import PhaseProfiler
from ..obs.session import ObservabilitySession
from ..workloads.tpcc import TPCCConfig, TPCCWorkload
from ..workloads.ycsb import YCSBConfig, YCSBWorkload
from .spec import DEFAULT_CACHE_BYTES, ExperimentSpec

__all__ = ["DEFAULT_CACHE_BYTES", "ExperimentResult", "ExperimentSpec",
           "run"]


def _make_database(spec: ExperimentSpec) -> Database:
    platform_config = PlatformConfig.for_engine(
        spec.engine, latency=spec.latency,
        cache=CacheConfig(capacity_bytes=spec.cache_bytes),
        seed=spec.seed)
    if spec.sharded:
        from ..dist.coordinator import ShardedDatabase
        return ShardedDatabase(
            engine=spec.engine, partitions=spec.partitions,
            platform_config=platform_config,
            engine_config=spec.engine_config, seed=spec.seed)
    return Database(engine=spec.engine, partitions=spec.partitions,
                    platform_config=platform_config,
                    engine_config=spec.engine_config, seed=spec.seed)


@dataclass
class ExperimentResult:
    """Everything one experiment point measures."""

    engine: str
    workload: str
    latency: str
    txns: int
    sim_seconds: float
    nvm_loads: int
    nvm_stores: int
    time_breakdown: Dict[str, float] = field(default_factory=dict)
    storage_breakdown: Dict[str, int] = field(default_factory=dict)
    #: Free-form per-run scalars. Always carries the spec identity
    #: (``seed``, ``partitions``, ``cache_bytes``) so merged sweep
    #: outputs are reproducible from the JSON alone.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-transaction simulated-latency percentiles (p50/p95/p99/max,
    #: ns); populated only when an observability session is attached.
    latency_percentiles: Optional[Dict[str, float]] = None
    #: Periodic counter samples over the run (see repro.obs.sampler);
    #: populated only when an observability session is attached.
    timeseries: Optional[List[Dict[str, float]]] = None
    #: Phase profile (``repro-phase-profile`` payload, see
    #: repro.obs.profiler): wall-vs-simulated time per run phase.
    #: Populated only when the run executes with live telemetry —
    #: profile data is wall-clock side-band, so default runs stay
    #: byte-identical between serial and parallel sweeps.
    phases: Optional[Dict[str, Any]] = None

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        if self.sim_seconds == 0:
            return 0.0
        return self.txns / self.sim_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (sweep summary files)."""
        payload = dataclasses.asdict(self)
        payload["throughput"] = self.throughput
        return payload


def _measure(db: Database, run_workload, spec: ExperimentSpec,
             obs: Optional[ObservabilitySession] = None
             ) -> ExperimentResult:
    """Snapshot counters, execute the workload, report the deltas
    (profiling starts after the initial load, as in Section 5)."""
    start_ns = db.now_ns
    loads_before = db.nvm_counters()["loads"]
    stores_before = db.nvm_counters()["stores"]
    categories_before = db.category_ns()
    if obs is not None:
        obs.begin_run(db)
    run_workload()
    # Steady-state accounting: dirty cache lines the run produced are
    # NVM writes it owes — drain them into the measurement window (at
    # the paper's 8M-txn scale eviction does this naturally).
    db.settle()
    obs_stats = obs.end_run(db) if obs is not None else None
    counters = db.nvm_counters()
    categories_after = db.category_ns()
    deltas = {name: categories_after[name] - categories_before[name]
              for name in categories_after}
    total_delta = sum(deltas.values()) or 1.0
    return ExperimentResult(
        engine=spec.engine,
        workload=spec.workload_name,
        latency=spec.latency.name,
        txns=spec.num_txns,
        sim_seconds=(db.now_ns - start_ns) / 1e9,
        nvm_loads=counters["loads"] - loads_before,
        nvm_stores=counters["stores"] - stores_before,
        time_breakdown={name: value / total_delta
                        for name, value in deltas.items()},
        storage_breakdown=db.storage_breakdown(),
        latency_percentiles=(obs_stats["latency_percentiles"]
                             if obs_stats else None),
        timeseries=obs_stats["timeseries"] if obs_stats else None,
    )


def _finish_run(db: Database, result: ExperimentResult,
                obs: Optional[ObservabilitySession],
                crash_recover: bool,
                profiler: PhaseProfiler) -> None:
    """Post-measurement epilogue: optional crash + recovery cycle (so
    recovery-phase spans land in the trace) and session detach."""
    if crash_recover:
        with profiler.phase("recovery", db):
            db.crash()
            recovery_s = db.recover()
        result.extra["recovery_seconds"] = recovery_s
        result.extra["recovery_s"] = recovery_s
        if obs is not None:
            obs.registry.gauge(
                "recovery_sim_seconds",
                help="Simulated seconds the crash-recovery epilogue took",
                engine=result.engine,
                workload=result.workload).set(recovery_s)
    if obs is not None:
        with profiler.phase("teardown", db):
            obs.detach(db)


def _make_workload(spec: ExperimentSpec):
    if spec.workload == "ycsb":
        config = YCSBConfig(num_tuples=spec.num_tuples,
                            mixture=spec.mixture, skew=spec.skew,
                            seed=spec.seed)
        return YCSBWorkload(config, partitions=spec.partitions)
    config = spec.tpcc_config or TPCCConfig(seed=spec.seed)
    return TPCCWorkload(config, partitions=spec.partitions)


def run(spec: ExperimentSpec,
        obs: Optional[ObservabilitySession] = None,
        database: Optional[Database] = None,
        telemetry: Optional[Publisher] = None
        ) -> ExperimentResult:
    """Execute one experiment point; returns its measurements.

    ``spec`` fully determines the run, so equal specs produce equal
    results in any process — this is what lets the scheduler fan points
    out across workers and still merge deterministically.

    Pass ``obs`` to trace/meter the run. Pass ``database`` to reuse a
    pre-loaded database (e.g. several mixtures against one load, as in
    the read/write experiments); that escape hatch is in-process only —
    live databases never cross the scheduler's process boundary.

    Pass ``telemetry`` (a :class:`~repro.obs.bus.Publisher`)
    to stream progress while the point runs: per-commit heartbeats
    (rate-limited) plus phase transitions, and to attach the phase
    profile to :attr:`ExperimentResult.phases`. Telemetry is wall-clock
    side-band data; the measured results are identical with it on or
    off.
    """
    profiler = PhaseProfiler.for_run(telemetry)
    workload = _make_workload(spec)
    db = database
    fresh = db is None
    if fresh:
        with profiler.phase("setup"):
            db = _make_database(spec)
    if obs is not None:
        obs.attach(db, spec.engine, spec.workload_name)
    try:
        with profiler.heartbeats(db):
            if fresh:
                with profiler.phase("load", db):
                    workload.load(db)
                # Post-load checkpoint (engines without checkpoints:
                # no-op) so the in-run checkpoint cadence is measured
                # from a clean base.
                with profiler.phase("checkpoint", db):
                    db.checkpoint()
            if spec.run_checkpoint_interval is not None:
                db.set_checkpoint_interval(spec.run_checkpoint_interval)
            db.settle()
            with profiler.phase("run", db):
                result = _measure(
                    db, lambda: workload.run(db, spec.num_txns), spec,
                    obs=obs)
            if spec.workload == "ycsb":
                result.extra["num_tuples"] = spec.num_tuples
            else:
                # The visible cost of the paper's single-partition
                # cheat (and its sharded 2PC counterpart) — comparable
                # across serial and sharded runs of the same spec.
                result.extra["remote_redirected"] = \
                    workload.remote_redirected
                result.extra["remote_distributed"] = \
                    workload.remote_distributed
            result.extra["seed"] = spec.seed
            result.extra["partitions"] = spec.partitions
            result.extra["cache_bytes"] = spec.cache_bytes
            _finish_run(db, result, obs, spec.crash_recover, profiler)
    finally:
        if fresh:
            db.close()
    profiler.finish(result)
    return result
