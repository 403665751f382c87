"""Crash-campaign tests: coverage, nested crashes, and the oracle's
ability to catch a deliberately broken durability protocol — the one
kernel under both workloads and both transports."""

import pytest

from repro.core.twopc import FP_DECIDE_AFTER
from repro.dist.campaign import PairWrite
from repro.engines.base import ENGINE_NAMES
from repro.fault import campaign, fault_points_for_engine
from repro.fault.campaign import (CampaignSpec, SingleRow, build_script,
                                  plan_coordinates, run_crash_campaign)
from tests.core.test_database_contract import FACTORIES

ALL_ENGINES = list(ENGINE_NAMES.ALL) + ["nvm-mvcc", "hybrid-inp"]


def test_script_is_deterministic_and_feasible():
    script = build_script(seed=7, ops=64)
    assert script == build_script(seed=7, ops=64)
    live = set()
    for op, key, value in script:
        if op == "insert":
            assert key not in live
            live.add(key)
        elif op == "delete":
            assert key in live
            assert value is None
            live.discard(key)
        else:
            assert key in live
    values = [value for __, __, value in script if value is not None]
    assert len(values) == len(set(values)), "oracle needs unique values"


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_counting_run_covers_every_registered_point(engine):
    result = CampaignSpec(engine=engine).execute()
    assert result.ok, result.violations
    missing = [point for point in fault_points_for_engine(engine)
               if result.hits.get(point, 0) <= 0]
    assert missing == [], f"{engine} never reached {missing}"


def test_plan_coordinates_sample_first_and_last_hit():
    hits = {"wal.append.before": 9, "recovery.begin": 1,
            "recovery.end": 1}
    coordinates = plan_coordinates(fault_points_for_engine("inp"), hits,
                                   max_hits_per_point=3)
    append_hits = sorted(hit for (point, hit), in
                         [c for c in coordinates if len(c) == 1
                          and c[0][0] == "wal.append.before"])
    assert 1 in append_hits and 9 in append_hits
    # recovery points get nested plans: crash, then crash again during
    # the recovery that follows.
    nested = [c for c in coordinates if len(c) == 2]
    assert (("wal.append.before", 1), ("recovery.begin", 1)) in nested


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("workload, trigger", [
    (SingleRow, ("nvm_wal.append.after_persist", 3)),
    (PairWrite, (FP_DECIDE_AFTER, 2)),
], ids=["single-row", "pair-write"])
def test_single_coordinate_crashes_and_recovers(workload, trigger,
                                                factory):
    """One coordinate of each workload on each transport: the kernel
    reads hits and fired triggers through the partition contract, so
    the plan may fire on the far side of a pipe."""
    spec = CampaignSpec(engine="nvm-inp", ops=24, triggers=(trigger,),
                        workload=workload, factory=factory)
    result = spec.execute()
    assert result.ok, result.violations
    assert result.crashes >= 2  # the trigger + the final clean crash
    assert result.recoveries == result.crashes
    # Every partition runs the same plan: a pair-write's trigger may
    # fire once per partition.
    assert set(result.fired) == {trigger}
    assert result.hits[trigger[0]] >= trigger[1]


def test_nested_crash_during_recovery():
    spec = CampaignSpec(engine="inp",
                        triggers=(("wal.append.before", 1),
                                  ("recovery.begin", 1)))
    result = spec.execute()
    assert result.ok, result.violations
    assert result.nested_crashes >= 1
    assert set(result.fired) == {("wal.append.before", 1),
                                 ("recovery.begin", 1)}


@pytest.mark.parametrize("engine", ["nvm-inp", "hybrid-inp"])
def test_campaign_full_engine_zero_violations(engine):
    report = run_crash_campaign([engine], seed=7)
    assert report.ok, (report.violations, report.failures,
                       report.uncovered)
    assert report.uncovered == {engine: []}
    targeted = {spec_point
                for outcome in report.outcomes
                for spec_point, __ in outcome.spec.triggers}
    assert targeted == set(fault_points_for_engine(engine))


def test_hybrid_engine_is_crashed_mid_operation():
    """The hybrid engine inherits InP's durability protocol, so it is
    registered for InP's points — not just the generic recovery pair."""
    points = fault_points_for_engine("hybrid-inp")
    assert points == fault_points_for_engine("inp")
    assert len(points) >= 12


def test_broken_master_record_fence_is_caught():
    """Sabotage the NVM-CoW master-record flip: a plain cache-buffered
    store instead of the atomic durable write. With the crash-eviction
    lottery at probability 0 the unfenced flip never survives a crash,
    so acknowledged commits are lost — and the oracle must say so."""
    db = campaign._make_database("nvm-cow", seed=7)
    engine = db.partitions[0].engine

    def broken_write_master(dirty):
        for directory in dirty:
            engine.faults.fire("nvm_cow.master_flip.before_slot")
            engine.memory.store_u64(
                engine._master.addr + 8 * directory.slot,
                directory.tree.current_root.node_id)
            # No fence, no durable-root bookkeeping: the flip sits in
            # the CPU cache and is lost at the crash.

    engine._write_master = broken_write_master
    spec = CampaignSpec(engine="nvm-cow",
                        triggers=(("nvm_cow.tuple_copy.after", 10),))
    result = spec.execute(database=db)
    assert not result.ok
    assert any("lost committed row" in violation
               for violation in result.violations), result.violations


@pytest.mark.parametrize("engine", ["nvm-inp", "nvm-log", "nvm-mvcc"])
def test_oracle_reads_ride_out_a_crash_at_every_hit(engine):
    """The oracle's reads commit, so an armed point can fire inside
    them: on the NVM-WAL engines the final verify's scan is the 65th
    pass through ``nvm_wal.truncate.before`` (seed 7). Crashing at every
    hit of that point — not only the planner's first/middle/last — must
    end in a recovered, verified run, never a raw ``SimulatedCrash``."""
    point = "nvm_wal.truncate.before"
    hits = CampaignSpec(engine=engine).execute().hits[point]
    assert hits >= 65
    for hit in range(1, hits + 1):
        result = CampaignSpec(engine=engine,
                              triggers=((point, hit),)).execute()
        assert result.ok, (hit, result.violations)
        assert result.recoveries == result.crashes, hit
